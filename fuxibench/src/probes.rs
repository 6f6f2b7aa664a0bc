//! Per-layer probes timed from outside the program: wire-codec replay,
//! the sim kernel's storm floor, and ping-pong actors on the live runtime.

use crate::report::{quantile, Report};
use fuxi_obs::{AgentReport, MetricsReport};
use fuxi_proto::msg::Msg;
use fuxi_proto::wire::{decode_msg, encode_frame, encode_msg};
use fuxi_proto::{
    AppId, CapacityChange, FrameType, JobId, MachineId, NodeHealthReport, RequestDelta,
    ResourceVec, UnitId, PROTO_VERSION,
};
use fuxi_sim::{Actor, ActorId, Ctx, SimDuration};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The four message kinds the codec replay times, as they look on a
/// loaded cluster.
fn wire_samples() -> [(&'static str, Msg); 4] {
    let unit = ResourceVec::new(500, 2048);
    [
        (
            "capacity_notify",
            Msg::CapacityNotify {
                changes: (0..4)
                    .map(|i| CapacityChange {
                        app: AppId(100 + i),
                        unit: UnitId(0),
                        unit_resource: unit.clone(),
                        delta: if i % 2 == 0 { 2 } else { -1 },
                    })
                    .collect(),
            },
        ),
        (
            "heartbeat",
            Msg::AgentHeartbeat {
                machine: MachineId(17),
                health: NodeHealthReport::healthy(),
            },
        ),
        (
            "request_update",
            Msg::RequestUpdate {
                app: AppId(42),
                seq: 9_001,
                deltas: vec![
                    RequestDelta::cluster(UnitId(0), 12),
                    RequestDelta::machine(UnitId(0), MachineId(3), 2),
                    RequestDelta::machine(UnitId(1), MachineId(40), -1),
                    RequestDelta::cluster(UnitId(1), -4),
                ],
            },
        ),
        (
            "metrics_report",
            Msg::MetricsReport {
                report: MetricsReport::Agent(AgentReport {
                    machine: 17,
                    t_s: 123.25,
                    total_cpu_milli: 24_000,
                    total_mem_mb: 98_304,
                    used_cpu_milli: 12_500,
                    used_mem_mb: 51_200,
                    workers: 25,
                    worker_starts: 1_234,
                    worker_exits: 1_209,
                    ..AgentReport::default()
                }),
            },
        ),
    ]
}

/// Replays `encode_msg`/`decode_msg` on the four sample messages and
/// records per-kind and mean µs plus frame bytes. Returns `false` if a
/// message does not survive the round trip.
pub fn wire_replay(report: &mut Report) -> bool {
    const REPS: u32 = 5_000;
    let mut ok = true;
    let (mut enc_sum, mut dec_sum, mut bytes_sum) = (0.0, 0.0, 0.0);
    for (kind, msg) in wire_samples() {
        let t = Instant::now();
        let mut payload = Vec::new();
        for _ in 0..REPS {
            payload = encode_msg(PROTO_VERSION, std::hint::black_box(&msg)).expect("encodes");
        }
        let enc_us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
        let t = Instant::now();
        let mut decoded = None;
        for _ in 0..REPS {
            decoded = Some(decode_msg(PROTO_VERSION, std::hint::black_box(&payload)));
        }
        let dec_us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
        ok &= matches!(decoded, Some(Ok(ref m)) if format!("{m:?}") == format!("{msg:?}"));
        let frame = encode_frame(PROTO_VERSION, FrameType::Msg as u16, &payload).len() as f64;
        let (e, d, b) = match kind {
            "capacity_notify" => (
                "wire.encode_us.capacity_notify",
                "wire.decode_us.capacity_notify",
                "wire.frame_bytes.capacity_notify",
            ),
            "heartbeat" => (
                "wire.encode_us.heartbeat",
                "wire.decode_us.heartbeat",
                "wire.frame_bytes.heartbeat",
            ),
            "request_update" => (
                "wire.encode_us.request_update",
                "wire.decode_us.request_update",
                "wire.frame_bytes.request_update",
            ),
            _ => (
                "wire.encode_us.metrics_report",
                "wire.decode_us.metrics_report",
                "wire.frame_bytes.metrics_report",
            ),
        };
        report.set(e, enc_us, REPS as u64);
        report.set(d, dec_us, REPS as u64);
        report.set(b, frame, 1);
        enc_sum += enc_us;
        dec_sum += dec_us;
        bytes_sum += frame;
    }
    report.set("wire.encode_us", enc_sum / 4.0, 4 * REPS as u64);
    report.set("wire.decode_us", dec_sum / 4.0, 4 * REPS as u64);
    report.set("wire.frame_bytes", bytes_sum / 4.0, 4);
    ok
}

/// The sim kernel's floor: `sim_storm` at this workload's machine count
/// and (about) its event count, in ns per event.
pub fn kernel_floor(report: &mut Report, machines: usize, events: u64, seed: u64) {
    // The storm costs three events per job (submit, timer, completion).
    let jobs = (events / 3).max(1_000);
    let s = fuxi_bench::sim_storm::run_event_storm(
        machines,
        jobs,
        fuxi_sim::QueueKernel::Calendar,
        seed,
    );
    report.set(
        "sim.kernel_ns_per_event",
        s.wall_s * 1e9 / s.events.max(1) as f64,
        s.events,
    );
}

/// Hop latencies (µs) collected by a [`HopProbe`] pair.
type HopSamples = Arc<Mutex<Vec<f64>>>;

/// Sends a numbered ping to its peer every `period` and records half the
/// round trip when the echo comes back. Uses `Msg::StopJob` as an inert
/// carrier: only the two probe actors ever see these messages.
struct HopProbe {
    peer: ActorId,
    period: SimDuration,
    sent: BTreeMap<u32, Instant>,
    next: u32,
    samples: HopSamples,
    stop: Arc<AtomicBool>,
}

/// Echoes every message back to its sender.
struct Echo;

impl Actor<Msg> for Echo {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        ctx.send(from, msg);
    }
}

impl Actor<Msg> for HopProbe {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.timer(self.period, 0);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ActorId, msg: Msg) {
        if let Msg::StopJob { job } = msg {
            if let Some(t) = self.sent.remove(&job.0) {
                let hop_us = t.elapsed().as_secs_f64() * 1e6 / 2.0;
                self.samples.lock().unwrap().push(hop_us);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
        if self.stop.load(Ordering::Relaxed) {
            return;
        }
        self.next += 1;
        self.sent.insert(self.next, Instant::now());
        ctx.send(
            self.peer,
            Msg::StopJob {
                job: JobId(self.next),
            },
        );
        ctx.timer(self.period, 0);
    }
}

/// A running ping-pong probe on a live runtime.
pub struct HopHandle {
    samples: HopSamples,
    stop: Arc<AtomicBool>,
}

impl HopHandle {
    /// Spawns an echo actor and a pinger through `LiveRuntime::spawn`.
    pub fn spawn(rt: &fuxi_rt::LiveRuntime<Msg>, period_ms: u64) -> HopHandle {
        let samples: HopSamples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let echo = rt.spawn(None, Box::new(Echo));
        rt.spawn(
            None,
            Box::new(HopProbe {
                peer: echo,
                period: SimDuration::from_millis(period_ms),
                sent: BTreeMap::new(),
                next: 0,
                samples: Arc::clone(&samples),
                stop: Arc::clone(&stop),
            }),
        );
        HopHandle { samples, stop }
    }

    /// Stops pinging and records `rt.hop_p50_us` / `rt.hop_p99_us`.
    pub fn finish(&self, report: &mut Report) {
        self.stop.store(true, Ordering::Relaxed);
        let s = self.samples.lock().unwrap().clone();
        report.set("rt.hop_p50_us", quantile(&s, 0.5), s.len() as u64);
        report.set("rt.hop_p99_us", quantile(&s, 0.99), s.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_replay_round_trips_every_sample() {
        let mut r = Report::default();
        assert!(wire_replay(&mut r));
        assert!(r.get("wire.frame_bytes.capacity_notify").unwrap() > 12.0);
        assert!(r.get("wire.encode_us").unwrap() > 0.0);
    }
}
