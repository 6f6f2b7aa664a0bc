//! The open-loop load generator shared by the live workloads: one thread submits
//! seeded Poisson arrivals on schedule, whatever the system's backlog.

use crate::procstat::{sample_self, sleep_until};
use fuxi_cluster::{JobState, SubmitOpts};
use fuxi_job::JobDesc;
use fuxi_node::LiveNode;
use fuxi_proto::JobId;
use fuxi_rt::LiveCluster;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What the generator needs from a live engine.
pub trait Engine {
    fn submit(&mut self, desc: &JobDesc) -> JobId;
    /// The engine clock (seconds since its runtime epoch), the timebase
    /// of client-logged times and wall-clock trace events.
    fn now_s(&self) -> f64;
    fn finished_count(&self) -> usize;
}

impl Engine for LiveCluster {
    fn submit(&mut self, desc: &JobDesc) -> JobId {
        LiveCluster::submit(self, desc, &SubmitOpts::default())
    }
    fn now_s(&self) -> f64 {
        self.rt.now().as_secs_f64()
    }
    fn finished_count(&self) -> usize {
        LiveCluster::finished_count(self)
    }
}

impl Engine for LiveNode {
    fn submit(&mut self, desc: &JobDesc) -> JobId {
        LiveNode::submit(self, desc, &SubmitOpts::default())
    }
    fn now_s(&self) -> f64 {
        self.rt.now().as_secs_f64()
    }
    fn finished_count(&self) -> usize {
        LiveNode::finished_count(self)
    }
}

/// One submitted job: its id and scheduled arrival on the engine clock.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub job: JobId,
    pub sched_s: f64,
}

/// What one open-loop phase submitted and observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub arrivals: Vec<Arrival>,
    /// How late each submission left the generator, ms.
    pub late_ms: Vec<f64>,
    /// Duration of each submit call, µs.
    pub submit_us: Vec<f64>,
    /// Most OS threads this process had at any ~100 ms sample.
    pub threads_peak: u64,
    /// Jobs submitted but not terminal at the phase's midpoint and end.
    pub backlog_mid: usize,
    pub backlog_end: usize,
}

/// Submits `job(i)` at each offset (seconds after the call) and calls
/// `tick` after every submission; `tick` returning `false` ends the
/// phase early.
pub fn drive<E: Engine>(
    e: &mut E,
    offsets: &[f64],
    job: impl Fn(usize) -> JobDesc,
    mut tick: impl FnMut(&mut E, usize) -> bool,
) -> Phase {
    let t0 = Instant::now();
    let clock0 = e.now_s();
    let finished0 = e.finished_count();
    let mut p = Phase {
        threads_peak: sample_self().threads,
        ..Phase::default()
    };
    let mut next_sample = t0;
    let mid = offsets.len() / 2;
    for (i, &off) in offsets.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(off);
        sleep_until(due);
        p.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let desc = job(i);
        let t = Instant::now();
        let id = e.submit(&desc);
        p.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        p.arrivals.push(Arrival {
            job: id,
            sched_s: clock0 + off,
        });
        if Instant::now() >= next_sample {
            p.threads_peak = p.threads_peak.max(sample_self().threads);
            next_sample += Duration::from_millis(100);
        }
        if i == mid {
            p.backlog_mid = p.arrivals.len() - (e.finished_count() - finished0);
        }
        if !tick(e, i) {
            break;
        }
    }
    p.backlog_end = p.arrivals.len() - (e.finished_count() - finished0).min(p.arrivals.len());
    p
}

/// Waits until `n` jobs are terminal or `timeout` passes, sampling the
/// thread count on the way; returns whether all finished.
pub fn wait_finished<E: Engine>(
    e: &E,
    n: usize,
    timeout: Duration,
    threads_peak: &mut u64,
) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        *threads_peak = (*threads_peak).max(sample_self().threads);
        if e.finished_count() >= n {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Terminal jobs: id -> (scheduled arrival, done time, success).
pub type Done = BTreeMap<JobId, (f64, f64, bool)>;

/// Client-observed latency (done minus scheduled arrival, seconds) of
/// each arrival that reached a terminal state, plus those jobs.
pub fn latencies(arrivals: &[Arrival], log: &BTreeMap<JobId, JobState>) -> (Vec<f64>, Done) {
    let mut lat = Vec::with_capacity(arrivals.len());
    let mut done = BTreeMap::new();
    for a in arrivals {
        if let Some((ok, t, _)) = log.get(&a.job).and_then(|s| s.done.as_ref()) {
            lat.push(t - a.sched_s);
            done.insert(a.job, (a.sched_s, *t, *ok));
        }
    }
    (lat, done)
}
