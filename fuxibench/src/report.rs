//! The metric catalogue, the per-run report, and the one-line JSON result.
//!
//! Every run prints *every* metric of its class (end-to-end without
//! `--trace`, per-layer with it), so the catalogue below is the single
//! list of names; `tests::catalogue_matches_benchmark_json` keeps it equal
//! to `BENCHMARK.json`. A per-layer metric whose layer does no work on a
//! workload reads 0 there (README.md lists where each one is measured).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_speedup", "x"),
    ("job_latency_p50_s", "s"),
    ("job_latency_p99_s", "s"),
    ("cpu_ms_per_job", "ms"),
    ("failover_gap_s", "s"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("job_fail_share", "share"),
    ("planned_mem_util", "share"),
    ("sim.events", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.step_p99_us", "us"),
    ("sim.step_max_ms", "ms"),
    ("sim.kernel_ns_per_event", "ns"),
    ("sim.msgs_sent", "count"),
    ("sim.msgs_to_dead", "count"),
    ("sim.flows_started", "count"),
    ("core.sched_decisions", "count"),
    ("core.sched_p50_us", "us"),
    ("core.sched_p99_us", "us"),
    ("core.sched_busy_share", "share"),
    ("core.handler_ms_per_job", "ms"),
    ("core.updates_per_job", "count"),
    ("core.rebuild_s", "s"),
    ("apsara.election_s", "s"),
    ("apsara.leases_expired", "count"),
    ("seg.admit_s_p50", "s"),
    ("seg.admit_s_p99", "s"),
    ("seg.jm_start_s_p50", "s"),
    ("seg.jm_start_s_p99", "s"),
    ("seg.first_grant_s_p50", "s"),
    ("seg.first_grant_s_p99", "s"),
    ("seg.worker_start_s_p50", "s"),
    ("seg.worker_start_s_p99", "s"),
    ("seg.run_s_p50", "s"),
    ("seg.run_s_p99", "s"),
    ("seg.coverage", "share"),
    ("seg.finish_notify_s_p50", "s"),
    ("job.grant_gaps", "count"),
    ("job.instance_failures", "count"),
    ("rt.threads_peak", "count"),
    ("rt.ctx_switches_per_job", "count"),
    ("rt.sys_share", "share"),
    ("rt.actors_spawned_per_job", "count"),
    ("rt.hop_p50_us", "us"),
    ("rt.hop_p99_us", "us"),
    ("rt.mailbox_hwm", "count"),
    ("rt.mailbox_parked", "count"),
    ("rt.clock_parked", "count"),
    ("wire.bytes_per_job", "B"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.frame_bytes", "B"),
    ("wire.encode_us.capacity_notify", "us"),
    ("wire.decode_us.capacity_notify", "us"),
    ("wire.frame_bytes.capacity_notify", "B"),
    ("wire.encode_us.heartbeat", "us"),
    ("wire.decode_us.heartbeat", "us"),
    ("wire.frame_bytes.heartbeat", "B"),
    ("wire.encode_us.request_update", "us"),
    ("wire.decode_us.request_update", "us"),
    ("wire.frame_bytes.request_update", "B"),
    ("wire.encode_us.metrics_report", "us"),
    ("wire.decode_us.metrics_report", "us"),
    ("wire.frame_bytes.metrics_report", "B"),
    ("node.frames_relayed_per_job", "count"),
    ("node.frames_dropped", "count"),
    ("node.cpu_ms_per_job.hub", "ms"),
    ("node.cpu_ms_per_job.master-a", "ms"),
    ("node.cpu_ms_per_job.master-b", "ms"),
    ("node.cpu_ms_per_job.agents", "ms"),
    ("obs.trace_events_per_job", "count"),
    ("obs.reports_per_s", "1/s"),
    ("obs.traced_over_untraced", "x"),
    ("cluster.submit_us_p99", "us"),
    ("gen.late_p99_ms", "ms"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: u64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub violations: Vec<String>,
    /// Deterministic identity of the run (sim only), printed for diffing.
    pub fingerprint: Option<String>,
    values: BTreeMap<&'static str, Value>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the catalogue"
        );
        self.values.insert(name, Value { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The metrics of one class, in catalogue order; missing values read 0.
    fn class(&self, traced: bool) -> Vec<(&'static str, &'static str, Value)> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|&(n, u)| {
                let v = self.values.get(n).copied().unwrap_or(Value {
                    value: 0.0,
                    samples: 0,
                });
                (n, u, v)
            })
            .collect()
    }

    /// Human-readable table (stderr) with sample counts.
    pub fn render_table(&self, traced: bool) -> String {
        let mut out = String::new();
        for (n, u, v) in self.class(traced) {
            out.push_str(&format!(
                "  {n:<34} {:>14} {u:<6} (n={})\n",
                fmt_num(v.value),
                v.samples
            ));
        }
        out
    }

    /// Full detail of the run (both classes, samples, checks) as JSON.
    pub fn detail_json(&self, workload: &str, seed: u64, traced: bool) -> String {
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"fingerprint\":{},\"violations\":[{}],\"metrics\":{{",
            traced as u8,
            self.correct(),
            self.attempted,
            self.failed,
            self.fingerprint
                .as_deref()
                .map_or("null".to_owned(), fuxi_obs::export::json_string),
            self.violations
                .iter()
                .map(|v| fuxi_obs::export::json_string(v))
                .collect::<Vec<_>>()
                .join(","),
        );
        let all: Vec<_> = self
            .class(false)
            .into_iter()
            .chain(self.class(true))
            .collect();
        for (i, (n, u, v)) in all.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{n}\":{{\"value\":{},\"unit\":\"{u}\",\"samples\":{}}}",
                fmt_num(v.value),
                v.samples
            ));
        }
        out.push_str("}}");
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .class(traced)
            .into_iter()
            .map(|(n, u, v)| {
                format!(
                    "\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}",
                    fmt_num(v.value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values read 0).
pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_owned();
    }
    let s = format!("{v}");
    if s.contains('e') {
        format!("{v:.12}")
    } else {
        s
    }
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean of a few repeated measurements (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median of a few repeated measurements.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Time-weighted mean of `num/den` over `[from, to]`, holding each sample
/// until the next one (the FM samples both series at the same instants).
pub fn time_weighted_ratio(
    num: &[(f64, f64)],
    den: &[(f64, f64)],
    from: f64,
    to: f64,
) -> (f64, u64) {
    let mut acc = 0.0;
    let mut span = 0.0;
    let mut n = 0;
    for (i, (&(t, p), &(_, d))) in num.iter().zip(den).enumerate() {
        let next = num.get(i + 1).map_or(to, |x| x.0).min(to);
        let start = t.max(from);
        if next <= start || d <= 0.0 {
            continue;
        }
        acc += (p / d) * (next - start);
        span += next - start;
        n += 1;
    }
    if span > 0.0 {
        (acc / span, n)
    } else {
        (0.0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn time_weighting_holds_each_sample() {
        let num = [(0.0, 1.0), (10.0, 3.0), (20.0, 0.0)];
        let den = [(0.0, 4.0), (10.0, 4.0), (20.0, 4.0)];
        // [5,10) at 0.25 and [10,20) at 0.75 -> (1.25 + 7.5) / 15.
        let (m, n) = time_weighted_ratio(&num, &den, 5.0, 20.0);
        assert!((m - 8.75 / 15.0).abs() < 1e-12);
        assert_eq!(n, 2);
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.5, 3);
        let line = r.result_line(false);
        let v = serde_json::value_from_str(&line).expect("valid JSON");
        for k in ["correct", "attempted", "failed", "metrics"] {
            assert!(v.get_field(k).is_some(), "{k} missing in {line}");
        }
        let m = v.get_field("metrics").unwrap();
        for (n, _) in END_TO_END {
            assert!(m.get_field(n).is_some(), "{n} missing");
        }
    }

    /// `BENCHMARK.json` (next to this package) names exactly the catalogue.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let v = serde_json::value_from_str(&text).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let items = v.get_field(key).and_then(|x| x.as_array()).expect(key);
            let declared: Vec<(String, String)> = items
                .iter()
                .map(|m| {
                    let s = |f: &str| {
                        m.get_field(f)
                            .and_then(|x| x.as_str())
                            .unwrap_or_else(|| panic!("{key} entry without {f}"))
                            .to_owned()
                    };
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from the catalogue");
        }
    }
}
