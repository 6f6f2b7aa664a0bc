//! Load generation: seeded open-loop Poisson arrivals and the job shapes
//! the live workloads submit.

use fuxi_job::JobDesc;
use fuxi_workloads::mapreduce::{wordcount_job, MapReduceParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Arrival offsets (seconds from the window start) of a Poisson process
/// at `rate` jobs/s over `[0, window_s)`. Same seed, same offsets.
pub fn poisson_arrivals(seed: u64, rate: f64, window_s: f64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ ARRIVAL_STREAM);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // 53 random mantissa bits: uniform in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / rate;
        if t >= window_s {
            return out;
        }
        out.push(t);
    }
}

/// Keeps the arrival stream independent of other users of the seed.
const ARRIVAL_STREAM: u64 = 0x5eed_a771;

/// `bench_live`'s live job: 6 maps, 2 reduces, ~60 ms instances and a
/// 4 MB binary, so the package-flow path stays exercised.
pub fn live_job(seed: u64, i: usize) -> JobDesc {
    wordcount_job(&MapReduceParams {
        maps: 6,
        reduces: 2,
        map_duration_s: 0.06,
        reduce_duration_s: 0.06,
        jitter: 0.2,
        max_workers: 4,
        binary_mb: 4.0,
        map_output_mb: 1.0,
        output_file: Some(format!("pangu://live/out-{seed}-{i}")),
        ..Default::default()
    })
}

/// `bench_live --distributed`'s job: 2 maps, 1 reduce, ~50 ms tasks.
pub fn dist_job(seed: u64, i: usize) -> JobDesc {
    wordcount_job(&MapReduceParams {
        maps: 2,
        reduces: 1,
        map_duration_s: 0.05,
        reduce_duration_s: 0.05,
        jitter: 0.2,
        max_workers: 2,
        binary_mb: 1.0,
        map_output_mb: 0.2,
        output_file: Some(format!("pangu://dist/out-{seed}-{i}")),
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seeded_and_near_the_rate() {
        let a = poisson_arrivals(7, 100.0, 20.0);
        assert_eq!(a, poisson_arrivals(7, 100.0, 20.0));
        assert_ne!(a, poisson_arrivals(8, 100.0, 20.0));
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }
}
