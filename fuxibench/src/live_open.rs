//! `live_open`: single-process `fuxi-rt` (200 machines, primary plus
//! standby master) under open-loop Poisson arrivals of `bench_live`'s
//! live job at 100 jobs/s. After the window drains, a failover phase
//! kills the primary master three times, each time timing how long a
//! stream of small probe jobs goes without service.

use crate::load::{live_job, poisson_arrivals};
use crate::openloop::{drive, latencies, wait_finished, Done, Engine, Phase};
use crate::probes::{self, HopHandle};
use crate::procstat::{loopback_tx_bytes, self_usage};
use crate::report::{mean, median, quantile, Report};
use crate::segments::{self, ClientTimes};
use crate::{panic_message, Pass};
use fuxi_cluster::ClusterConfig;
use fuxi_core::master::{FuxiMaster, MasterConfig};
use fuxi_rt::LiveCluster;
use fuxi_sim::{Metrics, SimDuration, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const MACHINES: usize = 200;
const RATE: f64 = 100.0;
const SETUPS: usize = 3;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Master kills in the failover phase; each needs a fresh standby.
const FAILOVERS: usize = 3;
/// A failover round gives up after this long without a post-kill success.
const FAILOVER_CAP_S: f64 = 30.0;
/// Probe jobs arrive this often during a failover round.
const PROBE_PERIOD_S: f64 = 0.2;
/// Time for a fresh standby to queue at the lock before the next kill.
const STANDBY_SETTLE: Duration = Duration::from_millis(300);
/// The open-loop generator must stay this far ahead of job latency.
const MAX_LATE_SHARE: f64 = 0.1;

fn config(seed: u64) -> ClusterConfig {
    // `bench_live`'s single-process clocks: a 3 s lease keeps a busy
    // 2-core host from costing the primary its lease spuriously.
    ClusterConfig {
        n_machines: MACHINES,
        rack_size: 50,
        seed,
        master: MasterConfig {
            lease_ttl: SimDuration::from_secs_f64(3.0),
            keepalive_interval: SimDuration::from_secs_f64(1.0),
            ..MasterConfig::default()
        },
        standby_master: true,
        ..ClusterConfig::default()
    }
}

/// Builds the cluster and waits for the first elected master.
fn set_up(seed: u64) -> (LiveCluster, f64) {
    let t = Instant::now();
    let c = LiveCluster::new(config(seed));
    while c.current_master().is_none() {
        assert!(
            t.elapsed() < Duration::from_secs(30),
            "no master elected in 30 s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    (c, t.elapsed().as_secs_f64())
}

/// Stops the runtime; an actor panic it re-raises becomes a violation.
fn shut_down(c: LiveCluster, report: &mut Report) -> Option<(Metrics, Tracer)> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.shutdown())) {
        Ok(mt) => Some(mt),
        Err(p) => {
            report.failed += 1;
            report
                .violations
                .push(format!("actor panic at shutdown: {}", panic_message(&*p)));
            None
        }
    }
}

/// Set-up repeated `SETUPS` times; returns the last cluster.
fn set_up_median(seed: u64, report: &mut Report) -> LiveCluster {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(c) = last.take() {
            shut_down(c, report);
        }
        let (c, s) = set_up(seed);
        times.push(s);
        last = Some(c);
    }
    report.set("setup_s", median(&times), times.len() as u64);
    last.expect("set up")
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Pass {
    let mut report = Report::default();
    let t_setup = Instant::now();
    let mut c = set_up_median(seed, &mut report);
    let setup_wall = t_setup.elapsed().as_secs_f64();
    let hop = traced.then(|| HopHandle::spawn(&c.rt, 10));

    // Measured window: open-loop arrivals, then drain.
    let window_s = seconds as f64;
    let offsets = poisson_arrivals(seed, RATE, window_s);
    let usage0 = self_usage();
    let lo0 = loopback_tx_bytes();
    let run_t0 = Instant::now();
    let mut phase: Phase = drive(&mut c, &offsets, |i| live_job(seed, i), |_, _| true);
    let mut threads_peak = phase.threads_peak;
    let n = phase.arrivals.len();
    let drained = wait_finished(&c, n, DRAIN_TIMEOUT, &mut threads_peak);
    let usage = self_usage().since(&usage0);
    let run_wall_window = run_t0.elapsed().as_secs_f64();
    let lo1 = loopback_tx_bytes();
    report.check(drained, || {
        format!("window jobs not terminal after {DRAIN_TIMEOUT:?}")
    });
    let log: BTreeMap<_, _> = c.all_jobs().into_iter().collect();
    let (lat, done) = latencies(&phase.arrivals, &log);
    let completed = done.len() as u64;
    let first_s = phase
        .arrivals
        .first()
        .map_or(0.0, |a| a.sched_s - offsets[0]);
    let last_done = done.values().map(|d| d.1).fold(first_s, f64::max);
    report.set(
        "sim_speedup",
        window_s / (last_done - first_s).max(1e-9),
        completed,
    );
    report.set(
        "cpu_ms_per_job",
        usage.cpu_s() * 1e3 / completed.max(1) as f64,
        completed,
    );
    report.set("job_latency_p50_s", quantile(&lat, 0.5), completed);
    report.set("job_latency_p99_s", quantile(&lat, 0.99), completed);
    let late_p99 = quantile(&phase.late_ms, 0.99);
    report.set("gen.late_p99_ms", late_p99, phase.late_ms.len() as u64);
    report.set(
        "cluster.submit_us_p99",
        quantile(&phase.submit_us, 0.99),
        phase.submit_us.len() as u64,
    );
    report.check(
        late_p99 < MAX_LATE_SHARE * quantile(&lat, 0.5) * 1e3,
        || format!("open-loop generator fell behind: late p99 {late_p99:.2} ms"),
    );
    report.set(
        "rt.ctx_switches_per_job",
        usage.ctx_switches as f64 / completed.max(1) as f64,
        usage.ctx_switches,
    );
    report.set("rt.sys_share", usage.sys_s / usage.cpu_s().max(1e-9), 1);
    report.set(
        "wire.bytes_per_job",
        lo1.saturating_sub(lo0) as f64 / completed.max(1) as f64,
        1,
    );
    if let Some(h) = &hop {
        h.finish(&mut report);
    }

    // Failover phase: kill the primary; once the naming service shows a
    // new master, send a probe job every 200 ms until one succeeds. A job
    // sent to the dead master is only retried on the client's next tick,
    // so probes sent before the takeover could not succeed sooner; not
    // sending them keeps each round short. Drain, spawn a fresh standby
    // and repeat. The mean over the rounds is reported: each round's gap
    // is a sum of bounded waits (lease expiry, heartbeat phase), and the
    // mean of three is steadier than their median.
    let leases_before = c.rt.metrics_snapshot().counter("lock.lease_expired");
    let (mut gaps, mut elections) = (Vec::new(), Vec::new());
    let probe_offsets: Vec<f64> = (0..(FAILOVER_CAP_S / PROBE_PERIOD_S) as usize)
        .map(|i| i as f64 * PROBE_PERIOD_S)
        .collect();
    for round in 0..FAILOVERS {
        if round > 0 {
            let cfg = config(seed);
            let standby = FuxiMaster::new(
                cfg.master,
                (*c.topo).clone(),
                c.naming.clone(),
                c.store.clone(),
                c.lock,
                c.hub.clone(),
            );
            c.rt.spawn(None, Box::new(standby));
            std::thread::sleep(STANDBY_SETTLE);
        }
        let old_master = c.current_master();
        let kill_s = c.now_s();
        c.kill_primary_master();
        while c.current_master() == old_master && c.now_s() < kill_s + FAILOVER_CAP_S {
            std::thread::sleep(Duration::from_millis(1));
        }
        let took_over = c.current_master() != old_master;
        report.check(took_over, || format!("failover round {round}: no takeover"));
        if !took_over {
            continue;
        }
        elections.push(c.now_s() - kill_s);
        let finished_before = c.finished_count();
        let first = phase.arrivals.len();
        let post = drive(
            &mut c,
            &probe_offsets,
            |i| live_job(seed, first + i),
            // The window drained, so any new finish is a probe's.
            |c, _| c.finished_count() == finished_before,
        );
        phase.arrivals.extend(post.arrivals.iter().copied());
        let all_drained = wait_finished(&c, phase.arrivals.len(), DRAIN_TIMEOUT, &mut threads_peak);
        report.check(all_drained, || {
            format!("failover round {round}: probes not terminal")
        });
        let log: BTreeMap<_, _> = c.all_jobs().into_iter().collect();
        let (_, post_done) = latencies(&post.arrivals, &log);
        let gap = post_done
            .values()
            .filter(|(_, _, ok)| *ok)
            .map(|(_, t, _)| t - kill_s)
            .fold(f64::INFINITY, f64::min);
        report.check(gap.is_finite(), || {
            format!("failover round {round}: no probe succeeded")
        });
        gaps.extend(gap.is_finite().then_some(gap));
    }
    eprintln!(
        "live_open: set-ups {setup_wall:.1} s, window+drain {:.1} s, failover phase {:.1} s",
        run_wall_window,
        run_t0.elapsed().as_secs_f64() - run_wall_window
    );
    eprintln!("live_open: failover gaps {gaps:.3?} s, elections {elections:.3?} s");
    report.set("failover_gap_s", mean(&gaps), gaps.len() as u64);
    report.set(
        "apsara.election_s",
        mean(&elections),
        elections.len() as u64,
    );
    report.set("rt.threads_peak", threads_peak as f64, 1);
    let log: BTreeMap<_, _> = c.all_jobs().into_iter().collect();

    // Exactly once, from the client log and the masters' finish counter.
    let submitted = phase.arrivals.len() as u64;
    let terminal = phase
        .arrivals
        .iter()
        .filter(|a| log.get(&a.job).is_some_and(|s| s.done.is_some()))
        .count() as u64;
    let failed_jobs = phase
        .arrivals
        .iter()
        .filter(|a| {
            log.get(&a.job)
                .is_some_and(|s| matches!(s.done, Some((false, ..))))
        })
        .count() as u64;
    let run_wall = run_t0.elapsed().as_secs_f64();
    let Some((metrics, tracer)) = shut_down(c, &mut report) else {
        report.attempted = submitted;
        return Pass { report, cost: 0.0 };
    };
    let dups = metrics.counter("fm.jobs_finished").saturating_sub(terminal);
    report.attempted = submitted;
    report.failed += failed_jobs + (submitted - terminal) + dups;
    report.set(
        "job_fail_share",
        (failed_jobs + (submitted - terminal) + dups) as f64 / submitted.max(1) as f64,
        submitted,
    );
    report.check(dups == 0, || format!("{dups} duplicate job finishes"));

    let total_jobs = terminal.max(1) as f64;
    let sched = metrics.histogram("fm.sched_s");
    let decisions = sched.map_or(0, |h| h.count());
    report.set("core.sched_decisions", decisions as f64, decisions);
    report.set(
        "core.sched_p50_us",
        sched.map_or(0.0, |h| h.quantile(0.5)) * 1e6,
        decisions,
    );
    report.set(
        "core.sched_p99_us",
        sched.map_or(0.0, |h| h.quantile(0.99)) * 1e6,
        decisions,
    );
    report.set(
        "core.sched_busy_share",
        sched.map_or(0.0, |h| h.sum()) / run_wall,
        decisions,
    );
    let updates = metrics.counter("fm.request_updates")
        + metrics.counter("fm.grant_updates")
        + metrics.counter("fm.returns");
    report.set("core.updates_per_job", updates as f64 / total_jobs, updates);
    report.set(
        "apsara.leases_expired",
        metrics
            .counter("lock.lease_expired")
            .saturating_sub(leases_before) as f64,
        1,
    );
    report.set("sim.msgs_sent", metrics.counter("net.sent") as f64, 1);
    report.set("sim.msgs_to_dead", metrics.counter("net.to_dead") as f64, 1);
    report.set(
        "sim.flows_started",
        metrics.counter("flow.started") as f64,
        1,
    );
    report.set("job.grant_gaps", metrics.counter("jm.grant_gaps") as f64, 1);
    report.set(
        "job.instance_failures",
        metrics.counter("jm.instance_failures") as f64,
        1,
    );
    report.set(
        "rt.actors_spawned_per_job",
        metrics.counter("rt.actors_spawned") as f64 / total_jobs,
        metrics.counter("rt.actors_spawned"),
    );
    report.set("rt.mailbox_hwm", metrics.gauge("rt.mailbox_hwm"), 1);
    report.set(
        "rt.mailbox_parked",
        metrics.counter("rt.mailbox_parked") as f64,
        1,
    );
    report.set(
        "rt.clock_parked",
        metrics.counter("rt.clock_parked") as f64,
        1,
    );
    report.set(
        "obs.reports_per_s",
        metrics.counter("fm.metrics_reports") as f64 / run_wall,
        metrics.counter("fm.metrics_reports"),
    );
    let planned = metrics.series("fm.planned_mem_mb");
    let total = metrics.series("fm.total_mem_mb");
    let (util, util_n) = crate::report::time_weighted_ratio(
        planned,
        total,
        first_s + 0.2 * window_s,
        first_s + window_s,
    );
    report.set("planned_mem_util", util, util_n);

    if traced {
        record_trace(&mut report, &tracer, &done, total_jobs);
        let ok = probes::wire_replay(&mut report);
        report.check(ok, || "wire codec replay did not round-trip".into());
    }
    report.set("peak_rss_mb", self_usage().max_rss_kb as f64 / 1024.0, 1);
    let cost = report.get("cpu_ms_per_job").unwrap_or(0.0);
    Pass { report, cost }
}

/// Trace-derived per-layer metrics of a live run: job segments, handler
/// time, rebuild window, trace volume and per-trace finish counts.
fn record_trace(report: &mut Report, tracer: &Tracer, window_done: &Done, total_jobs: f64) {
    let handler_s: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.kind.name() == "msg_handler")
        .map(|s| s.wall_s)
        .sum();
    report.set(
        "core.handler_ms_per_job",
        handler_s * 1e3 / total_jobs,
        tracer.spans.len() as u64,
    );
    let mut started = None;
    let mut finishes: BTreeMap<u64, u32> = BTreeMap::new();
    for r in &tracer.records {
        match r.event.name() {
            "rebuild_started" => started = Some(r.t_s),
            "rebuild_done" => {
                if let Some(s) = started.take() {
                    report.set("core.rebuild_s", r.t_s - s, 1);
                }
            }
            "job_finished" => *finishes.entry(r.trace.0).or_insert(0) += 1,
            _ => {}
        }
    }
    let twice = finishes.values().filter(|&&n| n > 1).count();
    report.check(twice == 0, || {
        format!("{twice} jobs traced job_finished more than once")
    });
    report.set(
        "obs.trace_events_per_job",
        tracer.records.len() as f64 / total_jobs,
        tracer.records.len() as u64,
    );
    let jobs: BTreeMap<u64, ClientTimes> = window_done
        .iter()
        .map(|(j, &(a, t, _))| {
            (
                j.0 as u64,
                ClientTimes {
                    arrival_s: a,
                    done_s: t,
                },
            )
        })
        .collect();
    segments::record(report, &fuxi_obs::export::export_jsonl_wall(tracer), &jobs);
}

/// On-demand rate sweep (not part of the repeated runs): offers each rate
/// for `seconds` on a fresh cluster and reports p99 latency and backlog.
/// Prints one JSON line per rate and a summary naming the highest rate
/// that meets `P99_LIMIT_S` without a growing backlog.
pub fn sweep(seed: u64, seconds: u64) {
    const RATES: [f64; 4] = [40.0, 100.0, 150.0, 200.0];
    const P99_LIMIT_S: f64 = 2.0;
    let mut best = None;
    for rate in RATES {
        let mut report = Report::default();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (mut c, _) = set_up(seed);
            let offsets = poisson_arrivals(seed, rate, seconds as f64);
            let phase = drive(&mut c, &offsets, |i| live_job(seed, i), |_, _| true);
            let mut threads = phase.threads_peak;
            let drained = wait_finished(&c, phase.arrivals.len(), DRAIN_TIMEOUT, &mut threads);
            let log: BTreeMap<_, _> = c.all_jobs().into_iter().collect();
            let (lat, done) = latencies(&phase.arrivals, &log);
            let failed = done.values().filter(|d| !d.2).count();
            shut_down(c, &mut report);
            (phase, lat, drained, failed, threads)
        }));
        let line = match outcome {
            Ok((phase, lat, drained, failed, threads)) => {
                let p50 = quantile(&lat, 0.5);
                let p99 = quantile(&lat, 0.99);
                let growing = phase.backlog_end > 2 * phase.backlog_mid + 10;
                let meets = drained && failed == 0 && !growing && p99 <= P99_LIMIT_S;
                if meets && report.violations.is_empty() {
                    best = Some(rate);
                }
                format!(
                    "{{\"rate\":{rate},\"submitted\":{},\"unfinished\":{},\"failed\":{failed},\
                     \"p50_s\":{p50:.4},\"p99_s\":{p99:.4},\"backlog_mid\":{},\"backlog_end\":{},\
                     \"threads_peak\":{threads},\"meets_limit\":{meets},\"violations\":{:?}}}",
                    phase.arrivals.len(),
                    phase.arrivals.len() - lat.len(),
                    phase.backlog_mid,
                    phase.backlog_end,
                    report.violations
                )
            }
            Err(p) => format!(
                "{{\"rate\":{rate},\"panic\":{}}}",
                fuxi_obs::export::json_string(&panic_message(&*p))
            ),
        };
        println!("{line}");
    }
    println!(
        "{{\"seed\":{seed},\"seconds\":{seconds},\"p99_limit_s\":{P99_LIMIT_S},\"max_rate_meeting_limit\":{}}}",
        best.map_or("null".to_owned(), |r| r.to_string())
    );
}
