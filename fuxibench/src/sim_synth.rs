//! `sim_synth`: the deterministic sim kernel running the paper's §5.2
//! WordCount/Terasort mix at scale 0.2 (1,000 24-core machines, 200 jobs
//! kept running in a closed loop), then a primary-master kill.
//!
//! The mix's jobs run for minutes on the saturated cluster, so none of
//! them finish inside the horizon. Job latency on this workload therefore
//! comes from a short probe phase before the mix: twenty of `live_open`'s
//! jobs on the idle cluster, timed in simulated seconds.

use crate::probes;
use crate::procstat::{loopback_tx_bytes, sample_self, self_usage};
use crate::report::{median, quantile, time_weighted_ratio, Report};
use crate::segments::{self, ClientTimes};
use crate::Pass;
use fuxi_cluster::{Cluster, ClusterConfig, SubmitOpts};
use fuxi_proto::JobId;
use fuxi_sim::{Histogram, SimTime};
use fuxi_workloads::synthetic::SyntheticMix;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

const MACHINES: usize = 1_000;
const CONCURRENT: usize = 200;
/// Set-up costs about a millisecond here, so take the median of many.
const SETUPS: usize = 15;
/// Simulated seconds per `--seconds` of run time (20 → the 120 s horizon).
const SIM_PER_RUN_SECOND: u64 = 6;
/// Planned-utilization averaging starts after this share of the horizon.
const WARMUP_SHARE: f64 = 0.2;
/// The probe and failover phases give up after this much simulated time.
const PHASE_CAP_S: f64 = 120.0;
/// `live_job`s run on the idle cluster ahead of the mix.
const PROBES: usize = 20;

fn config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        n_machines: MACHINES,
        rack_size: 50,
        machine_spec: fuxi_bench::synthetic_machine_spec(),
        seed,
        standby_master: true,
        ..ClusterConfig::default()
    }
}

/// Builds the cluster and steps it until a master is elected.
fn set_up(seed: u64) -> (Cluster, f64) {
    let t = Instant::now();
    let mut c = Cluster::new(config(seed));
    while c.current_master().is_none() {
        if !c.world.step() {
            break;
        }
    }
    (c, t.elapsed().as_secs_f64())
}

struct SimRun {
    cluster: Cluster,
    mix: SyntheticMix,
    /// Jobs not yet terminal, with their submission (arrival) time.
    live: BTreeMap<JobId, f64>,
    /// Client-seen terminal jobs: id -> (arrival, done, success).
    done: BTreeMap<JobId, (f64, f64, bool)>,
    fm_finished_seen: u64,
    step_hist: Option<Histogram>,
    submit_us: Vec<f64>,
}

impl SimRun {
    fn submit(&mut self, desc: &fuxi_job::JobDesc) -> JobId {
        let t = Instant::now();
        let job = self.cluster.submit(desc, &SubmitOpts::default());
        self.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.live
            .insert(job, self.cluster.world.now().as_secs_f64());
        job
    }

    fn submit_from_mix(&mut self) {
        let spec = self.mix.next_job();
        self.submit(&spec.desc);
    }

    fn now_s(&self) -> f64 {
        self.cluster.world.now().as_secs_f64()
    }

    /// One `World::step`, timed when tracing. Returns how many jobs just
    /// reached a terminal state, or `None` once the queue is empty.
    fn step(&mut self) -> Option<usize> {
        let stepped = match &mut self.step_hist {
            Some(h) => {
                let t = Instant::now();
                let s = self.cluster.world.step();
                h.record(t.elapsed().as_secs_f64());
                s
            }
            None => self.cluster.world.step(),
        };
        if !stepped {
            return None;
        }
        // The FM counts a finish one hop before the client logs it; scan
        // the live jobs only while the client is behind.
        let fm_finished = self.cluster.world.metrics().counter("fm.jobs_finished");
        if fm_finished <= self.fm_finished_seen {
            return Some(0);
        }
        let newly: Vec<(JobId, f64, f64, bool)> = self
            .live
            .iter()
            .filter_map(|(&job, &arrival)| {
                self.cluster
                    .job_done(job)
                    .map(|(ok, at)| (job, arrival, at, ok))
            })
            .collect();
        for &(job, arrival, at, ok) in &newly {
            self.live.remove(&job);
            self.done.insert(job, (arrival, at, ok));
        }
        if self.done.len() as u64 >= fm_finished {
            self.fm_finished_seen = fm_finished;
        }
        Some(newly.len())
    }

    /// Runs one step and keeps the closed loop full: every finished job
    /// is replaced by the mix's next one.
    fn advance(&mut self) -> bool {
        let Some(finished) = self.step() else {
            return false;
        };
        for _ in 0..finished {
            self.submit_from_mix();
        }
        true
    }
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Pass {
    let mut report = Report::default();
    // All set-ups stay alive until the last one is built, so each pays for
    // fresh memory; reusing freed memory made the timing bimodal.
    let (mut clusters, setups): (Vec<Cluster>, Vec<f64>) =
        (0..SETUPS).map(|_| set_up(seed)).unzip();
    report.set("setup_s", median(&setups), setups.len() as u64);
    let cluster = clusters.pop().expect("set up");
    drop(clusters);
    let mut d = SimRun {
        cluster,
        mix: SyntheticMix::new(seed, 1.0),
        live: BTreeMap::new(),
        done: BTreeMap::new(),
        fm_finished_seen: 0,
        step_hist: None,
        submit_us: Vec::new(),
    };

    // Probe phase: the live workloads' job, end to end, on the idle cluster.
    let probe_start = d.now_s();
    for i in 0..PROBES {
        d.submit(&crate::load::live_job(seed, i));
    }
    while d.done.len() < PROBES && d.now_s() < probe_start + PHASE_CAP_S && d.step().is_some() {}
    let probe_done: Vec<(JobId, (f64, f64, bool))> = d.done.iter().map(|(&j, &v)| (j, v)).collect();
    let latencies: Vec<f64> = probe_done.iter().map(|(_, (a, t, _))| t - a).collect();
    report.check(probe_done.len() == PROBES, || {
        format!("{} of {PROBES} probe jobs finished", probe_done.len())
    });
    report.set(
        "job_latency_p50_s",
        quantile(&latencies, 0.5),
        latencies.len() as u64,
    );
    report.set(
        "job_latency_p99_s",
        quantile(&latencies, 0.99),
        latencies.len() as u64,
    );

    // Measured horizon: the paper's closed loop.
    let horizon_s = (seconds * SIM_PER_RUN_SECOND) as f64;
    d.step_hist = traced.then(Histogram::new);
    let start_s = d.now_s();
    let end_s = start_s + horizon_s;
    // A marker event at the horizon: stepping stops once it has run.
    let horizon_hit = Rc::new(Cell::new(false));
    {
        let flag = Rc::clone(&horizon_hit);
        d.cluster
            .world
            .at(SimTime::from_secs_f64(end_s), move |_| flag.set(true));
    }
    let usage0 = self_usage();
    let lo0 = loopback_tx_bytes();
    let m = d.cluster.world.metrics();
    let ev0 = d.cluster.world.events_processed();
    let counters0: BTreeMap<&str, u64> = [
        "net.sent",
        "net.to_dead",
        "flow.started",
        "fm.request_updates",
        "fm.grant_updates",
        "fm.returns",
        "fm.metrics_reports",
    ]
    .into_iter()
    .map(|c| (c, m.counter(c)))
    .collect();
    let sched0 = m
        .histogram("fm.sched_s")
        .map_or((0, 0.0), |h| (h.count(), h.sum()));
    let done0 = d.done.len();
    let wall0 = Instant::now();
    for _ in 0..CONCURRENT {
        d.submit_from_mix();
    }
    while !horizon_hit.get() && d.advance() {}
    let wall_s = wall0.elapsed().as_secs_f64();
    let usage = self_usage().since(&usage0);
    let proc1 = sample_self();
    let events = d.cluster.world.events_processed() - ev0;
    let finished = (d.done.len() - done0) as u64;
    let hosted = finished + d.live.len() as u64;
    let in_flight: Vec<JobId> = d.live.keys().copied().collect();

    // The horizon's metrics and deterministic fingerprint, read before the
    // failover adds its own work.
    let m = d.cluster.world.metrics();
    let delta = |c: &str| m.counter(c) - counters0[c];
    let sched = m
        .histogram("fm.sched_s")
        .cloned()
        .unwrap_or_else(Histogram::new);
    let decisions = sched.count() - sched0.0;
    report.fingerprint = Some(format!(
        "sim.events={events} core.sched_decisions={decisions} jobs_finished={finished}"
    ));
    let per_job = hosted.max(1) as f64;
    report.set("sim_speedup", horizon_s / wall_s, events);
    report.set("cpu_ms_per_job", usage.cpu_s() * 1e3 / per_job, hosted);
    report.set("sim.events", events as f64, events);
    report.set(
        "sim.host_ns_per_event",
        wall_s * 1e9 / events.max(1) as f64,
        events,
    );
    report.set("sim.msgs_sent", delta("net.sent") as f64, 1);
    report.set("sim.msgs_to_dead", delta("net.to_dead") as f64, 1);
    report.set("sim.flows_started", delta("flow.started") as f64, 1);
    report.set("core.sched_decisions", decisions as f64, decisions);
    report.set(
        "core.sched_p50_us",
        sched.quantile(0.5) * 1e6,
        sched.count(),
    );
    report.set(
        "core.sched_p99_us",
        sched.quantile(0.99) * 1e6,
        sched.count(),
    );
    report.set(
        "core.sched_busy_share",
        (sched.sum() - sched0.1) / wall_s,
        decisions,
    );
    let updates = delta("fm.request_updates") + delta("fm.grant_updates") + delta("fm.returns");
    report.set("core.updates_per_job", updates as f64 / per_job, updates);
    report.set("job.grant_gaps", m.counter("jm.grant_gaps") as f64, 1);
    report.set(
        "job.instance_failures",
        m.counter("jm.instance_failures") as f64,
        1,
    );
    report.set(
        "obs.reports_per_s",
        delta("fm.metrics_reports") as f64 / horizon_s,
        delta("fm.metrics_reports"),
    );
    report.set("rt.threads_peak", proc1.threads as f64, 1);
    report.set(
        "rt.ctx_switches_per_job",
        usage.ctx_switches as f64 / per_job,
        usage.ctx_switches,
    );
    report.set("rt.sys_share", usage.sys_s / usage.cpu_s().max(1e-9), 1);
    report.set(
        "wire.bytes_per_job",
        loopback_tx_bytes().saturating_sub(lo0) as f64 / per_job,
        1,
    );
    report.set(
        "cluster.submit_us_p99",
        quantile(&d.submit_us, 0.99),
        d.submit_us.len() as u64,
    );
    if let Some(h) = &d.step_hist {
        report.set("sim.step_p99_us", h.quantile(0.99) * 1e6, h.count());
        report.set("sim.step_max_ms", h.max() * 1e3, h.count());
    }

    // FM planned CPU and memory never exceed the totals at any sample.
    let planned_mem = m.series("fm.planned_mem_mb");
    let total_mem = m.series("fm.total_mem_mb");
    let over = planned_mem
        .iter()
        .zip(total_mem)
        .chain(
            m.series("fm.planned_cpu_milli")
                .iter()
                .zip(m.series("fm.total_cpu_milli")),
        )
        .filter(|((_, p), (_, t))| p > t)
        .count();
    report.check(over == 0, || {
        format!("FM planned exceeded total at {over} samples")
    });
    report.check(!planned_mem.is_empty(), || {
        "FM recorded no utilization samples".into()
    });
    let (util, util_n) = time_weighted_ratio(
        planned_mem,
        total_mem,
        start_s + WARMUP_SHARE * horizon_s,
        end_s,
    );
    report.set("planned_mem_util", util, util_n);

    // Failover: kill the primary at the horizon while the closed loop keeps
    // running. Service is back when the new primary grants again.
    let kill_s = d.now_s();
    let old_master = d.cluster.current_master();
    let leases0 = m.counter("lock.lease_expired");
    let grants0 = m.counter("fm.grant_updates");
    d.cluster.kill_primary_master();
    let mut election_s = None;
    let mut gap_s = None;
    while gap_s.is_none() && d.now_s() < kill_s + PHASE_CAP_S && d.advance() {
        if election_s.is_none() && d.cluster.current_master() != old_master {
            election_s = Some(d.now_s() - kill_s);
        }
        if d.cluster.world.metrics().counter("fm.grant_updates") > grants0 {
            gap_s = Some(d.now_s() - kill_s);
        }
    }
    report.check(gap_s.is_some(), || {
        format!("no grant within {PHASE_CAP_S} s of the master kill")
    });
    report.set("failover_gap_s", gap_s.unwrap_or(0.0), 1);
    report.set("apsara.election_s", election_s.unwrap_or(0.0), 1);
    let m = d.cluster.world.metrics();
    report.set(
        "apsara.leases_expired",
        (m.counter("lock.lease_expired") - leases0) as f64,
        1,
    );

    // Exactly once: one FM finish per client-seen finish, and every job in
    // flight at the horizon was accepted by a master.
    let dups = m
        .counter("fm.jobs_finished")
        .saturating_sub(d.done.len() as u64);
    let failed = d.done.values().filter(|(_, _, ok)| !ok).count() as u64;
    let not_accepted = in_flight
        .iter()
        .filter(|j| !d.cluster.job_state(**j).is_some_and(|s| s.accepted))
        .count() as u64;
    let submitted = (d.done.len() + d.live.len()) as u64;
    report.attempted = submitted;
    report.failed = failed + dups + not_accepted;
    report.set(
        "job_fail_share",
        report.failed as f64 / submitted.max(1) as f64,
        submitted,
    );
    report.check(dups == 0, || format!("{dups} duplicate job finishes"));
    report.check(not_accepted == 0, || {
        format!("{not_accepted} in-flight jobs never accepted")
    });

    if traced {
        let tracer = d.cluster.world.tracer();
        let in_horizon = |t: f64| (start_s..=end_s).contains(&t);
        let handler_s: f64 = tracer
            .spans
            .iter()
            .filter(|s| in_horizon(s.t_s) && s.kind.name() == "msg_handler")
            .map(|s| s.wall_s)
            .sum();
        report.set("core.handler_ms_per_job", handler_s * 1e3 / per_job, hosted);
        let mut rebuild_start = None;
        for r in tracer.records.iter().filter(|r| r.t_s >= kill_s) {
            match r.event.name() {
                "rebuild_started" => rebuild_start = Some(r.t_s),
                "rebuild_done" => {
                    if let Some(s) = rebuild_start.take() {
                        report.set("core.rebuild_s", r.t_s - s, 1);
                    }
                }
                _ => {}
            }
        }
        let records = tracer.records.iter().filter(|r| in_horizon(r.t_s)).count();
        report.set(
            "obs.trace_events_per_job",
            records as f64 / per_job,
            records as u64,
        );
        let jobs: BTreeMap<u64, ClientTimes> = probe_done
            .iter()
            .map(|(j, (a, t, _))| {
                (
                    j.0 as u64,
                    ClientTimes {
                        arrival_s: *a,
                        done_s: *t,
                    },
                )
            })
            .collect();
        segments::record(&mut report, &fuxi_obs::export::export_jsonl(tracer), &jobs);
        probes::kernel_floor(&mut report, MACHINES, events, seed);
        let ok = probes::wire_replay(&mut report);
        report.check(ok, || "wire codec replay did not round-trip".into());
    }
    report.set("peak_rss_mb", self_usage().max_rss_kb as f64 / 1024.0, 1);
    Pass {
        report,
        cost: wall_s,
    }
}
