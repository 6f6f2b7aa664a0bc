//! `dist_failover`: `fuxi-node` over TCP and the versioned wire protocol
//! as four processes — this one is the hub (lock service, client and
//! load generator), and it re-executes itself as master-a, master-b and the agent
//! fleet. Open-loop Poisson arrivals; the elected master's process is
//! SIGKILLed after a quarter of them.

use crate::load::{dist_job, poisson_arrivals};
use crate::openloop::{drive, latencies, wait_finished, Engine};
use crate::probes;
use crate::procstat::{children_usage, loopback_tx_bytes, sample_pid, self_usage, ProcSample};
use crate::report::{median, quantile, time_weighted_ratio, Report};
use crate::{panic_message, Pass};
use fuxi_cluster::{ClusterConfig, DeployTopology};
use fuxi_node::LiveNode;
use fuxi_sim::{Metrics, SimDuration, Tracer};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// First argument of a child invocation.
pub const CHILD_FLAG: &str = "--dist-child";
const MACHINES: usize = 48;
const RATE: f64 = 8.0;
/// Arrival window per `--seconds` (35 s at 20): long enough that the
/// ~10 s outage after the kill delays under a third of the jobs, not
/// half, so the median job does not sit on the edge of the delayed group.
const WINDOW_PER_RUN_SECOND: f64 = 1.75;
const SETUPS: usize = 3;
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(90);
const CHILD_EXIT_TIMEOUT: Duration = Duration::from_secs(20);
/// Prefix of the one stats line a child prints when its stdin closes.
const STATS_PREFIX: &str = "FUXIBENCH-CHILD ";

/// `bench_live`'s `dist_config`: a pure function of (machines, seed), so
/// every process computes the same topology; a 1.5 s lease and 0.5 s
/// keepalive keep the takeover short.
fn config(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        n_machines: MACHINES,
        rack_size: 4,
        seed,
        ..ClusterConfig::default()
    };
    cfg.master.lease_ttl = SimDuration::from_secs_f64(1.5);
    cfg.master.keepalive_interval = SimDuration::from_secs_f64(0.5);
    cfg
}

// ----------------------------------------------------------------------
// Child side
// ----------------------------------------------------------------------

/// Child mode: `--dist-child <index> <hub addr> <seed>`. Boots one leaf
/// node, runs until stdin closes, then stops its runtime and prints one
/// stats line (its metrics snapshot) for the hub.
pub fn child_main(args: &[String]) -> ! {
    let (Some(index), Some(hub), Some(seed)) = (
        args.first().and_then(|a| a.parse::<usize>().ok()),
        args.get(1),
        args.get(2).and_then(|a| a.parse::<u64>().ok()),
    ) else {
        eprintln!("fuxibench child: usage: {CHILD_FLAG} <index> <hub addr> <seed>");
        std::process::exit(2);
    };
    let deploy = DeployTopology::distributed(config(seed), hub);
    let node = match LiveNode::boot(deploy, index, Some(hub)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("fuxibench child {index}: boot failed: {e}");
            std::process::exit(1);
        }
    };
    let mut buf = [0u8; 64];
    while matches!(std::io::stdin().read(&mut buf), Ok(n) if n > 0) {}
    let rt = node.rt;
    let stats = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.shutdown())) {
        Ok((m, t)) => child_stats(&m, &t, None),
        Err(p) => child_stats(
            &Metrics::new(),
            &Tracer::default(),
            Some(panic_message(&*p)),
        ),
    };
    println!("{STATS_PREFIX}{stats}");
    let _ = std::io::stdout().flush();
    std::process::exit(0);
}

/// Counters the hub folds into per-layer metrics.
const CHILD_COUNTERS: [&str; 14] = [
    "fm.request_updates",
    "fm.grant_updates",
    "fm.returns",
    "fm.jobs_finished",
    "fm.metrics_reports",
    "net.sent",
    "net.to_dead",
    "flow.started",
    "jm.grant_gaps",
    "jm.instance_failures",
    "rt.actors_spawned",
    "rt.mailbox_parked",
    "rt.clock_parked",
    "lock.lease_expired",
];

/// One process's metrics snapshot as a JSON object.
fn child_stats(m: &Metrics, t: &Tracer, panic: Option<String>) -> String {
    let counters: Vec<String> = CHILD_COUNTERS
        .iter()
        .map(|c| format!("\"{c}\":{}", m.counter(c)))
        .collect();
    let sched = m.histogram("fm.sched_s");
    let (util, util_n) = time_weighted_ratio(
        m.series("fm.planned_mem_mb"),
        m.series("fm.total_mem_mb"),
        0.0,
        f64::MAX,
    );
    let mut rebuild_start = None;
    let mut rebuild_s = 0.0;
    for r in &t.records {
        match r.event.name() {
            "rebuild_started" => rebuild_start = Some(r.t_s),
            "rebuild_done" => {
                if let Some(s) = rebuild_start.take() {
                    rebuild_s = r.t_s - s;
                }
            }
            _ => {}
        }
    }
    let handler_s: f64 = t
        .spans
        .iter()
        .filter(|s| s.kind.name() == "msg_handler")
        .map(|s| s.wall_s)
        .sum();
    format!(
        "{{\"panic\":{},\"counters\":{{{}}},\"sched_count\":{},\"sched_sum\":{},\
         \"sched_p50\":{},\"sched_p99\":{},\"planned_util\":{util},\"planned_n\":{util_n},\
         \"rebuild_s\":{rebuild_s},\"handler_s\":{handler_s},\"trace_events\":{},\
         \"mailbox_hwm\":{}}}",
        panic.map_or("null".to_owned(), |p| fuxi_obs::export::json_string(&p)),
        counters.join(","),
        sched.map_or(0, |h| h.count()),
        sched.map_or(0.0, |h| h.sum()),
        sched.map_or(0.0, |h| h.quantile(0.5)),
        sched.map_or(0.0, |h| h.quantile(0.99)),
        t.records.len(),
        m.gauge("rt.mailbox_hwm"),
    )
}

// ----------------------------------------------------------------------
// Hub side
// ----------------------------------------------------------------------

/// A child process and the thread collecting its stdout.
struct ChildProc {
    name: String,
    child: Child,
    reader: Option<JoinHandle<Vec<String>>>,
    /// `/proc` reading at the window start, and the last one taken.
    start: ProcSample,
    last: ProcSample,
    killed: bool,
}

/// Every child of one cluster; dropping it kills and reaps them all.
struct Children(Vec<ChildProc>);

impl Drop for Children {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.child.kill();
            let _ = c.child.wait();
            if let Some(r) = c.reader.take() {
                let _ = r.join();
            }
        }
    }
}

impl Children {
    fn spawn(deploy: &DeployTopology, hub_addr: &str, seed: u64) -> std::io::Result<Children> {
        let exe = std::env::current_exe()?;
        let mut out = Children(Vec::new());
        for i in 1..deploy.nodes.len() {
            let mut child = Command::new(&exe)
                .args([CHILD_FLAG, &i.to_string(), hub_addr, &seed.to_string()])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()?;
            let stdout = child.stdout.take().expect("piped stdout");
            let reader = std::thread::spawn(move || {
                BufReader::new(stdout)
                    .lines()
                    .map_while(Result::ok)
                    .collect()
            });
            out.0.push(ChildProc {
                name: deploy.nodes[i].name.clone(),
                child,
                reader: Some(reader),
                start: ProcSample::default(),
                last: ProcSample::default(),
                killed: false,
            });
        }
        Ok(out)
    }

    fn sample(&mut self, at_start: bool) {
        for c in self.0.iter_mut().filter(|c| !c.killed) {
            if let Some(s) = sample_pid(c.child.id()) {
                if at_start {
                    c.start = s;
                }
                c.last = s;
            }
        }
    }

    /// Closes every stdin, waits for the children to print their stats
    /// and exit (killing any that do not), and returns the parsed stats
    /// by node name.
    fn finish(mut self) -> BTreeMap<String, serde_json::Value> {
        for c in &mut self.0 {
            drop(c.child.stdin.take());
        }
        let deadline = Instant::now() + CHILD_EXIT_TIMEOUT;
        let mut stats = BTreeMap::new();
        for c in &mut self.0 {
            while !matches!(c.child.try_wait(), Ok(Some(_))) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = c.child.kill();
            let _ = c.child.wait();
            let lines = c.reader.take().map(|r| r.join().unwrap_or_default());
            let line = lines
                .iter()
                .flatten()
                .find_map(|l| l.strip_prefix(STATS_PREFIX));
            if let Some(v) = line.and_then(|l| serde_json::value_from_str(l).ok()) {
                stats.insert(c.name.clone(), v);
            }
        }
        stats
    }
}

/// One booted 4-process cluster.
struct Cluster {
    hub: LiveNode,
    children: Children,
}

fn set_up(seed: u64) -> (Cluster, f64) {
    let t = Instant::now();
    let deploy = DeployTopology::distributed(config(seed), "127.0.0.1:0");
    let hub = LiveNode::boot(deploy.clone(), 0, None).expect("hub boots");
    let addr = hub.hub_addr().expect("hub bound").to_string();
    let children = Children::spawn(&deploy, &addr, seed).expect("spawn child nodes");
    assert!(
        hub.wait_connected(children.0.len() as u32, CONNECT_TIMEOUT),
        "child nodes never connected to the hub"
    );
    while hub.current_master().is_none() {
        assert!(
            t.elapsed() < CONNECT_TIMEOUT,
            "no master elected across processes"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let s = t.elapsed().as_secs_f64();
    (Cluster { hub, children }, s)
}

/// Stops the hub's runtime; an actor panic becomes a violation.
fn shut_down_hub(hub: LiveNode, report: &mut Report) -> Option<(Metrics, Tracer)> {
    let rt = hub.rt;
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.shutdown())) {
        Ok(mt) => Some(mt),
        Err(p) => {
            report.failed += 1;
            report.violations.push(format!(
                "hub actor panic at shutdown: {}",
                panic_message(&*p)
            ));
            None
        }
    }
}

fn num(v: Option<&serde_json::Value>) -> f64 {
    match v {
        Some(serde_json::Value::UInt(u)) => *u as f64,
        Some(serde_json::Value::Int(i)) => *i as f64,
        Some(serde_json::Value::Float(f)) => *f,
        _ => 0.0,
    }
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Pass {
    let mut report = Report::default();
    let mut times = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUPS {
        if let Some(Cluster { hub, children }) = cluster.take() {
            children.finish();
            shut_down_hub(hub, &mut report);
        }
        let (c, s) = set_up(seed);
        times.push(s);
        cluster = Some(c);
    }
    report.set("setup_s", median(&times), times.len() as u64);
    let Cluster {
        mut hub,
        mut children,
    } = cluster.expect("set up");

    let window_s = seconds as f64 * WINDOW_PER_RUN_SECOND;
    let offsets = poisson_arrivals(seed, RATE, window_s);
    let kill_at = offsets.len() / 4;
    children.sample(true);
    let usage0 = self_usage();
    let children0 = children_usage();
    let lo0 = loopback_tx_bytes();
    let run_t0 = Instant::now();
    let mut kill: Option<(f64, Option<fuxi_sim::ActorId>)> = None;
    let mut election_s = None;
    let mut victim_ok = true;
    let phase = drive(
        &mut hub,
        &offsets,
        |i| dist_job(seed, i),
        |hub, i| {
            if i == kill_at {
                // SIGKILL the process hosting the elected master.
                let master = hub.current_master();
                let node = master.map_or(0, |m| m.node_index() as usize);
                match children.0.get_mut(node.wrapping_sub(1)) {
                    Some(c) if node >= 1 => {
                        if let Some(s) = sample_pid(c.child.id()) {
                            c.last = s;
                        }
                        let _ = c.child.kill();
                        let _ = c.child.wait();
                        c.killed = true;
                        kill = Some((hub.now_s(), master));
                    }
                    _ => victim_ok = false,
                }
            }
            if let Some((at, old)) = kill {
                if election_s.is_none() && hub.current_master().is_some_and(|m| Some(m) != old) {
                    election_s = Some(hub.now_s() - at);
                }
            }
            true
        },
    );
    let mut threads_peak = phase.threads_peak;
    let n = phase.arrivals.len();
    let drained = wait_finished(&hub, n, DRAIN_TIMEOUT, &mut threads_peak);
    if election_s.is_none() {
        if let Some((at, old)) = kill {
            if hub.current_master().is_some_and(|m| Some(m) != old) {
                election_s = Some(hub.now_s() - at);
            }
        }
    }
    let usage = self_usage().since(&usage0);
    let lo1 = loopback_tx_bytes();
    let hub_threads = crate::procstat::sample_self().threads;
    children.sample(false);
    let run_wall = run_t0.elapsed().as_secs_f64();
    report.check(victim_ok && kill.is_some(), || {
        "elected master was not in a child process".into()
    });
    report.check(drained, || {
        format!("jobs not terminal after {DRAIN_TIMEOUT:?}")
    });
    report.check(election_s.is_some(), || {
        "standby never took over after the SIGKILL".into()
    });
    if let (Some((_, Some(old))), Some(new)) = (kill, hub.current_master()) {
        report.check(new.node_index() != old.node_index(), || {
            "new master lives in the killed process's window".into()
        });
    }

    let log: BTreeMap<_, _> = hub.all_jobs().into_iter().collect();
    let (lat, done) = latencies(&phase.arrivals, &log);
    let completed = done.len() as u64;
    let per_job = completed.max(1) as f64;
    let first_s = phase
        .arrivals
        .first()
        .map_or(0.0, |a| a.sched_s - offsets[0]);
    let last_done = done.values().map(|d| d.1).fold(first_s, f64::max);
    let kill_s = kill.map_or(f64::INFINITY, |k| k.0);
    let gap = done
        .values()
        .filter(|(arrival, _, ok)| *ok && *arrival >= kill_s)
        .map(|(_, t, _)| t - kill_s)
        .fold(f64::INFINITY, f64::min);
    report.check(gap.is_finite(), || {
        "no job that arrived after the kill succeeded".into()
    });

    // CPU and memory summed over the four processes.
    let mut cpu_s = usage.cpu_s();
    let mut sys_s = usage.sys_s;
    let mut rss_kb = self_usage().max_rss_kb;
    let mut threads = hub_threads;
    report.set(
        "node.cpu_ms_per_job.hub",
        usage.cpu_s() * 1e3 / per_job,
        completed,
    );
    for c in &children.0 {
        let d_cpu = c.last.cpu_s() - c.start.cpu_s();
        cpu_s += d_cpu;
        sys_s += c.last.sys_s - c.start.sys_s;
        rss_kb += c.last.vm_hwm_kb;
        threads += c.last.threads;
        let name = match c.name.as_str() {
            "master-a" => "node.cpu_ms_per_job.master-a",
            "master-b" => "node.cpu_ms_per_job.master-b",
            _ => "node.cpu_ms_per_job.agents",
        };
        report.set(name, d_cpu * 1e3 / per_job, completed);
    }
    report.set(
        "sim_speedup",
        window_s / (last_done - first_s).max(1e-9),
        completed,
    );
    report.set("job_latency_p50_s", quantile(&lat, 0.5), completed);
    report.set("job_latency_p99_s", quantile(&lat, 0.99), completed);
    report.set("cpu_ms_per_job", cpu_s * 1e3 / per_job, completed);
    report.set("failover_gap_s", if gap.is_finite() { gap } else { 0.0 }, 1);
    report.set("peak_rss_mb", rss_kb as f64 / 1024.0, 4);
    report.set("apsara.election_s", election_s.unwrap_or(0.0), 1);
    report.set("rt.threads_peak", threads.max(threads_peak) as f64, 4);
    report.set("rt.sys_share", sys_s / cpu_s.max(1e-9), 4);
    report.set(
        "wire.bytes_per_job",
        lo1.saturating_sub(lo0) as f64 / per_job,
        1,
    );
    let late_p99 = quantile(&phase.late_ms, 0.99);
    report.set("gen.late_p99_ms", late_p99, phase.late_ms.len() as u64);
    report.set(
        "cluster.submit_us_p99",
        quantile(&phase.submit_us, 0.99),
        phase.submit_us.len() as u64,
    );
    report.check(late_p99 < 0.1 * quantile(&lat, 0.5) * 1e3, || {
        format!("open-loop generator fell behind: late p99 {late_p99:.2} ms")
    });
    let (relayed, dropped, _) = hub.hub_stats();
    report.set(
        "node.frames_relayed_per_job",
        relayed as f64 / per_job,
        relayed,
    );
    report.set("node.frames_dropped", dropped as f64, 1);

    // Exactly once: the hub's client counts duplicate completions.
    let dups = hub.duplicate_finishes();
    let failed_jobs = done.values().filter(|d| !d.2).count() as u64;
    let unfinished = n as u64 - completed;
    report.attempted = n as u64;
    report.failed += failed_jobs + unfinished + dups;
    report.set(
        "job_fail_share",
        (failed_jobs + unfinished + dups) as f64 / (n as u64).max(1) as f64,
        n as u64,
    );
    report.check(dups == 0, || format!("{dups} duplicate job finishes"));

    // Per-process metrics snapshots, written when each child's stdin closed.
    let stats = children.finish();
    // Context switches of every thread, exited ones included: this
    // process's, plus the children's once they are reaped (their whole
    // lives from the window start, shutdown included).
    let ctx = usage.ctx_switches + children_usage().since(&children0).ctx_switches;
    report.set("rt.ctx_switches_per_job", ctx as f64 / per_job, ctx);
    let hub_mt = shut_down_hub(hub, &mut report);
    for (name, v) in &stats {
        if let Some(serde_json::Value::Str(p)) = v.get_field("panic") {
            report.failed += 1;
            report
                .violations
                .push(format!("{name}: actor panic at shutdown: {p}"));
        }
    }
    let counter = |c: &str| -> f64 {
        stats
            .values()
            .map(|v| num(v.get_field("counters").and_then(|x| x.get_field(c))))
            .sum()
    };
    // The surviving master carries the post-failover scheduling history.
    let survivor = stats
        .iter()
        .filter(|(name, _)| name.starts_with("master"))
        .max_by(|a, b| {
            num(a.1.get_field("sched_count")).total_cmp(&num(b.1.get_field("sched_count")))
        })
        .map(|(_, v)| v);
    if let Some(v) = survivor {
        let count = num(v.get_field("sched_count"));
        report.set("core.sched_decisions", count, count as u64);
        report.set(
            "core.sched_p50_us",
            num(v.get_field("sched_p50")) * 1e6,
            count as u64,
        );
        report.set(
            "core.sched_p99_us",
            num(v.get_field("sched_p99")) * 1e6,
            count as u64,
        );
        report.set(
            "core.sched_busy_share",
            num(v.get_field("sched_sum")) / run_wall,
            count as u64,
        );
        report.set(
            "core.handler_ms_per_job",
            num(v.get_field("handler_s")) * 1e3 / per_job,
            1,
        );
        report.set("core.rebuild_s", num(v.get_field("rebuild_s")), 1);
        report.set(
            "planned_mem_util",
            num(v.get_field("planned_util")),
            num(v.get_field("planned_n")) as u64,
        );
    }
    let updates =
        counter("fm.request_updates") + counter("fm.grant_updates") + counter("fm.returns");
    report.set("core.updates_per_job", updates / per_job, updates as u64);
    report.set("sim.msgs_sent", counter("net.sent"), 1);
    report.set("sim.msgs_to_dead", counter("net.to_dead"), 1);
    report.set("sim.flows_started", counter("flow.started"), 1);
    report.set("job.grant_gaps", counter("jm.grant_gaps"), 1);
    report.set("job.instance_failures", counter("jm.instance_failures"), 1);
    report.set("rt.mailbox_parked", counter("rt.mailbox_parked"), 1);
    report.set("rt.clock_parked", counter("rt.clock_parked"), 1);
    report.set(
        "obs.reports_per_s",
        counter("fm.metrics_reports") / run_wall,
        1,
    );
    let mut spawned = counter("rt.actors_spawned");
    let mut trace_events: f64 = stats
        .values()
        .map(|v| num(v.get_field("trace_events")))
        .sum();
    let mut hwm = stats
        .values()
        .map(|v| num(v.get_field("mailbox_hwm")))
        .fold(0.0, f64::max);
    if let Some((m, t)) = &hub_mt {
        report.set(
            "apsara.leases_expired",
            m.counter("lock.lease_expired") as f64,
            1,
        );
        spawned += m.counter("rt.actors_spawned") as f64;
        trace_events += t.records.len() as f64;
        hwm = hwm.max(m.gauge("rt.mailbox_hwm"));
    }
    report.set(
        "rt.actors_spawned_per_job",
        spawned / per_job,
        spawned as u64,
    );
    report.set("rt.mailbox_hwm", hwm, 4);
    report.set(
        "obs.trace_events_per_job",
        trace_events / per_job,
        trace_events as u64,
    );
    if traced {
        let ok = probes::wire_replay(&mut report);
        report.check(ok, || "wire codec replay did not round-trip".into());
    }
    let cost = report.get("cpu_ms_per_job").unwrap_or(0.0);
    Pass { report, cost }
}
