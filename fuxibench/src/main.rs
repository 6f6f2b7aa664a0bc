//! `fuxibench`: the repository's end-to-end benchmark.
//!
//! ```text
//! fuxibench --workload <sim_synth|live_open|dist_failover> --seed <n>
//!           --seconds <s> --trace <0|1> [--sweep]
//! ```
//!
//! Runs one workload, checks its outputs, and prints one JSON result line
//! last on stdout: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A traced run measures the workload twice —
//! untraced, then with the benchmark's own probes — and reports the ratio
//! as `obs.traced_over_untraced`. The full detail of every run (both
//! metric classes with sample counts, the checks, the sim fingerprint) is
//! written under `fuxibench/out/`. See README.md for every metric.

mod dist_failover;
mod live_open;
mod load;
mod openloop;
mod probes;
mod procstat;
mod report;
mod segments;
mod sim_synth;

use report::Report;

const WORKLOADS: [&str; 3] = ["sim_synth", "live_open", "dist_failover"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    sweep: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        sweep: false,
    };
    let mut i = 1;
    while i < argv.len() {
        let val = || argv.get(i + 1).ok_or(format!("{} needs a value", argv[i]));
        match argv[i].as_str() {
            "--workload" => a.workload = val()?.clone(),
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--sweep" => {
                a.sweep = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

/// Text of a caught panic payload.
pub fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// One pass of a workload: its report and the cost the traced/untraced
/// ratio compares (sim wall seconds, or CPU ms per job on live engines).
pub struct Pass {
    pub report: Report,
    pub cost: f64,
}

fn run_pass(a: &Args, traced: bool) -> Pass {
    match a.workload.as_str() {
        "sim_synth" => sim_synth::run(a.seed, a.seconds, traced),
        "live_open" => live_open::run(a.seed, a.seconds, traced),
        _ => dist_failover::run(a.seed, a.seconds, traced),
    }
}

fn run(a: &Args) -> Report {
    if !a.trace {
        return run_pass(a, false).report;
    }
    let base = run_pass(a, false);
    let mut traced = run_pass(a, true);
    traced.report.set(
        "obs.traced_over_untraced",
        traced.cost / base.cost.max(1e-12),
        2,
    );
    if let (Some(x), Some(y)) = (base.report.fingerprint, traced.report.fingerprint.clone()) {
        traced.report.check(x == y, || {
            format!("traced pass changed the sim fingerprint: {x} vs {y}")
        });
    }
    traced.report.violations.extend(base.report.violations);
    traced.report.failed += base.report.failed;
    traced.report
}

fn write_detail(a: &Args, r: &Report) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = format!("{dir}/{}-s{}-t{}.json", a.workload, a.seed, a.trace as u8);
        let _ = std::fs::write(&path, r.detail_json(&a.workload, a.seed, a.trace));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(dist_failover::CHILD_FLAG) {
        dist_failover::child_main(&argv[2..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuxibench: {e}");
            eprintln!(
                "usage: fuxibench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--sweep]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if args.sweep {
        live_open::sweep(args.seed, args.seconds);
        return;
    }
    let report = match std::panic::catch_unwind(|| run(&args)) {
        Ok(r) => r,
        Err(p) => {
            let mut r = Report::default();
            r.failed = 1;
            r.violations.push(format!("panic: {}", panic_message(&*p)));
            r
        }
    };
    write_detail(&args, &report);
    eprintln!(
        "fuxibench {} seed {} ({}): correct={} attempted={} failed={}",
        args.workload,
        args.seed,
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        report.correct(),
        report.attempted,
        report.failed
    );
    if let Some(f) = &report.fingerprint {
        eprintln!("  fingerprint: {f}");
    }
    for v in &report.violations {
        eprintln!("  CHECK FAILED: {v}");
    }
    eprint!("{}", report.render_table(args.trace));
    println!("{}", report.result_line(args.trace));
}
