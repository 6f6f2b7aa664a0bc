//! Job segments from the program's own trace events: the tracer's JSONL
//! export is parsed with `tracetool` and each job's lifecycle is cut at
//! its first `job_submitted`, `jm_started`, `grant`, `worker_started` and
//! `job_finished` events.

use crate::report::{quantile, Report};
use fuxi_bench::tracetool::{job_lifecycles, TraceLog};
use std::collections::BTreeMap;

/// The events that bound the segments.
const MARKS: [&str; 5] = [
    "\"job_submitted\"",
    "\"jm_started\"",
    "\"grant\"",
    "\"worker_started\"",
    "\"job_finished\"",
];

/// Per-job timing the client saw: scheduled arrival and terminal time,
/// both in the tracer's timebase.
pub struct ClientTimes {
    pub arrival_s: f64,
    pub done_s: f64,
}

/// Parses `jsonl` (keeping only segment-bounding events, so a large sim
/// export stays cheap) and records the `seg.*` metrics for `jobs`.
pub fn record(report: &mut Report, jsonl: &str, jobs: &BTreeMap<u64, ClientTimes>) {
    let kept: String = jsonl
        .lines()
        .filter(|l| MARKS.iter().any(|m| l.contains(m)))
        .flat_map(|l| [l, "\n"])
        .collect();
    let log = match TraceLog::parse(&kept) {
        Ok(log) => log,
        Err(e) => {
            report
                .violations
                .push(format!("trace export does not parse: {e}"));
            return;
        }
    };
    let mut segs: [Vec<f64>; 6] = Default::default();
    let (mut covered, mut latency) = (0.0, 0.0);
    for lc in job_lifecycles(&log) {
        let job = lc.job.unwrap_or(lc.trace.saturating_sub(1));
        let Some(ct) = jobs.get(&job) else { continue };
        let first = |name: &str| {
            lc.events
                .iter()
                .map(|&i| &log.events[i])
                .filter(|e| e.event == name)
                .map(|e| e.t_s)
                .fold(f64::INFINITY, f64::min)
        };
        let marks = [
            ct.arrival_s,
            first("job_submitted"),
            first("jm_started"),
            first("grant"),
            first("worker_started"),
            first("job_finished"),
            ct.done_s,
        ];
        if marks.iter().any(|t| !t.is_finite()) {
            continue;
        }
        for (k, seg) in segs.iter_mut().enumerate() {
            seg.push(marks[k + 1] - marks[k]);
        }
        covered += marks[5] - marks[0];
        latency += marks[6] - marks[0];
    }
    let names = [
        ("seg.admit_s_p50", "seg.admit_s_p99"),
        ("seg.jm_start_s_p50", "seg.jm_start_s_p99"),
        ("seg.first_grant_s_p50", "seg.first_grant_s_p99"),
        ("seg.worker_start_s_p50", "seg.worker_start_s_p99"),
        ("seg.run_s_p50", "seg.run_s_p99"),
    ];
    for (k, (p50, p99)) in names.iter().enumerate() {
        let n = segs[k].len() as u64;
        report.set(p50, quantile(&segs[k], 0.5), n);
        report.set(p99, quantile(&segs[k], 0.99), n);
    }
    let n = segs[5].len() as u64;
    report.set("seg.finish_notify_s_p50", quantile(&segs[5], 0.5), n);
    report.set(
        "seg.coverage",
        if latency > 0.0 {
            covered / latency
        } else {
            0.0
        },
        n,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_telescope_to_the_client_latency() {
        let ev = |t: f64, name: &str| {
            format!(
                "{{\"kind\":\"event\",\"wall_s\":{t},\"actor\":1,\"trace\":8,\"event\":\"{name}\",\"job\":7}}"
            )
        };
        let jsonl = [
            ev(1.5, "job_submitted"),
            ev(2.0, "jm_started"),
            ev(2.5, "grant"),
            ev(2.4, "grant"),
            ev(3.0, "worker_started"),
            ev(3.1, "instance_finished"),
            ev(4.0, "job_finished"),
        ]
        .join("\n");
        let mut jobs = BTreeMap::new();
        jobs.insert(
            7,
            ClientTimes {
                arrival_s: 1.0,
                done_s: 5.0,
            },
        );
        let mut r = Report::default();
        record(&mut r, &jsonl, &jobs);
        assert_eq!(r.get("seg.admit_s_p50"), Some(0.5));
        assert_eq!(r.get("seg.first_grant_s_p50"), Some(2.4 - 2.0));
        assert_eq!(r.get("seg.run_s_p50"), Some(1.0));
        assert_eq!(r.get("seg.finish_notify_s_p50"), Some(1.0));
        assert_eq!(r.get("seg.coverage"), Some(0.75));
        assert!(r.violations.is_empty());
    }
}
