//! Worker-pool semantics: per-source FIFO across many actors on few
//! workers, panic isolation, kill draining, and external backpressure that
//! cannot deadlock the pool.

use fuxi_rt::{LiveRuntime, RuntimeConfig};
use fuxi_sim::{Actor, ActorId, Ctx, KernelMsg};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug)]
enum TMsg {
    Seq(u64),
    Boom,
    FlowDone,
}

impl KernelMsg for TMsg {
    fn flow_done(_tag: u64, _failed: bool) -> Self {
        TMsg::FlowDone
    }
}

fn pool(mailbox_capacity: usize) -> LiveRuntime<TMsg> {
    LiveRuntime::new(RuntimeConfig {
        mailbox_capacity,
        ..RuntimeConfig::default()
    })
}

fn wait_for(cond: impl Fn() -> bool, timeout: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}

/// Counts messages; the first one waits until `gate` opens, which holds
/// its worker and lets mail pile up behind it.
struct Gated {
    gate: Arc<AtomicBool>,
    seen: Arc<AtomicU64>,
}

impl Actor<TMsg> for Gated {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, TMsg>, _from: ActorId, msg: TMsg) {
        if let TMsg::Seq(_) = msg {
            while !self.gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.seen.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Counts what it receives.
struct Counter(Arc<AtomicU64>);

impl Actor<TMsg> for Counter {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, TMsg>, _from: ActorId, msg: TMsg) {
        if let TMsg::Seq(_) = msg {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Checks every source's sequence numbers arrive in send order.
struct OrderCheck {
    next: BTreeMap<ActorId, u64>,
    in_order: Arc<AtomicU64>,
    out_of_order: Arc<AtomicU64>,
}

impl Actor<TMsg> for OrderCheck {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, TMsg>, from: ActorId, msg: TMsg) {
        if let TMsg::Seq(n) = msg {
            let expect = self.next.entry(from).or_insert(0);
            if n == *expect {
                self.in_order.fetch_add(1, Ordering::SeqCst);
            } else {
                self.out_of_order.fetch_add(1, Ordering::SeqCst);
            }
            *expect = n + 1;
        }
    }
}

/// Sends `n` numbered messages to each of `sinks` from `on_start`,
/// interleaving destinations.
struct Burst {
    sinks: Vec<ActorId>,
    n: u64,
}

impl Actor<TMsg> for Burst {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
        for i in 0..self.n {
            for &s in &self.sinks {
                ctx.send(s, TMsg::Seq(i));
            }
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, _: TMsg) {}
}

#[test]
fn per_source_fifo_holds_for_500_actors_on_the_pool() {
    let rt = pool(8192);
    let in_order = Arc::new(AtomicU64::new(0));
    let out_of_order = Arc::new(AtomicU64::new(0));
    let sinks: Vec<ActorId> = (0..4)
        .map(|_| {
            rt.spawn(
                None,
                Box::new(OrderCheck {
                    next: BTreeMap::new(),
                    in_order: Arc::clone(&in_order),
                    out_of_order: Arc::clone(&out_of_order),
                }),
            )
        })
        .collect();
    let (senders, n) = (500u64, 10u64);
    for _ in 0..senders {
        let sinks = sinks.clone();
        rt.spawn(None, Box::new(Burst { sinks, n }));
    }
    let total = senders * n * 4;
    let done = || in_order.load(Ordering::SeqCst) + out_of_order.load(Ordering::SeqCst) == total;
    assert!(wait_for(done, Duration::from_secs(20)), "not all messages arrived");
    assert_eq!(out_of_order.load(Ordering::SeqCst), 0, "per-source FIFO broken");
    let (metrics, _) = rt.shutdown();
    assert_eq!(metrics.counter("rt.actors_spawned"), senders + 4);
    assert_eq!(metrics.counter("rt.mailbox_parked"), 0);
}

/// Panics on `Boom`, counts everything else.
struct Fragile(Arc<AtomicU64>);

impl Actor<TMsg> for Fragile {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, TMsg>, _from: ActorId, msg: TMsg) {
        match msg {
            TMsg::Boom => panic!("handler blew up"),
            _ => {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
}

#[test]
fn handler_panic_kills_only_its_actor_and_shutdown_reraises_it() {
    let rt = pool(8192);
    let fragile_seen = Arc::new(AtomicU64::new(0));
    let fragile = rt.spawn(None, Box::new(Fragile(Arc::clone(&fragile_seen))));
    let other_seen = Arc::new(AtomicU64::new(0));
    let other = rt.spawn(None, Box::new(Counter(Arc::clone(&other_seen))));
    rt.send_external(fragile, TMsg::Boom);
    let dead = wait_for(|| !rt.alive(fragile), Duration::from_secs(5));
    assert!(dead, "panicked actor reads as dead");
    // The rest of the runtime keeps running.
    for i in 0..10 {
        rt.send_external(other, TMsg::Seq(i));
    }
    assert!(wait_for(|| other_seen.load(Ordering::SeqCst) == 10, Duration::from_secs(5)));
    rt.send_external(fragile, TMsg::Seq(0));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.shutdown()));
    let payload = outcome.expect_err("shutdown re-raises the handler panic");
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(text.contains("handler blew up"), "got payload {text:?}");
    assert_eq!(fragile_seen.load(Ordering::SeqCst), 0, "dead actor handled nothing more");
}

#[test]
fn killed_actor_drains_mail_queued_before_the_kill() {
    let rt = pool(8192);
    let gate = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(AtomicU64::new(0));
    let a = rt.spawn(
        None,
        Box::new(Gated {
            gate: Arc::clone(&gate),
            seen: Arc::clone(&seen),
        }),
    );
    for i in 0..100 {
        rt.send_external(a, TMsg::Seq(i));
    }
    rt.kill_actor(a);
    assert!(!rt.alive(a));
    rt.send_external(a, TMsg::Seq(100)); // after the kill: dead, dropped
    gate.store(true, Ordering::SeqCst);
    assert!(wait_for(|| seen.load(Ordering::SeqCst) == 100, Duration::from_secs(10)));
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(seen.load(Ordering::SeqCst), 100, "nothing sent after the kill ran");
    rt.shutdown();
}

#[test]
fn blocked_external_senders_outnumbering_workers_cannot_deadlock() {
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let rt = Arc::new(pool(4));
    let gate = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(AtomicU64::new(0));
    let target = rt.spawn(
        None,
        Box::new(Gated {
            gate: Arc::clone(&gate),
            seen: Arc::clone(&seen),
        }),
    );
    let (threads, per) = (workers as u64 * 3, 50u64);
    let delivered = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let inject = rt.remote_injector();
            let delivered = Arc::clone(&delivered);
            std::thread::spawn(move || {
                for i in 0..per {
                    inject(ActorId::NONE, target, TMsg::Seq(i));
                    delivered.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    // The target holds one worker and its 4-deep mailbox is full, so every
    // sender thread is parked; the pool itself still serves other actors.
    std::thread::sleep(Duration::from_millis(50));
    assert!(delivered.load(Ordering::SeqCst) < threads * per, "senders must be blocked");
    let other_seen = Arc::new(AtomicU64::new(0));
    let other = rt.spawn(None, Box::new(Counter(Arc::clone(&other_seen))));
    rt.send_external(other, TMsg::Seq(0));
    assert!(
        wait_for(|| other_seen.load(Ordering::SeqCst) == 1, Duration::from_secs(5)),
        "pool stalled behind blocked external senders"
    );
    gate.store(true, Ordering::SeqCst);
    let all = threads * per;
    assert!(
        wait_for(|| seen.load(Ordering::SeqCst) == all, Duration::from_secs(20)),
        "full mailbox never drained: {} of {all}",
        seen.load(Ordering::SeqCst)
    );
    for h in handles {
        h.join().unwrap();
    }
    let rt = Arc::try_unwrap(rt).ok().expect("sole owner");
    let (metrics, _) = rt.shutdown();
    assert!(metrics.gauge("rt.mailbox_hwm") <= 4.0, "external senders respect the bound");
}

/// Message payloads in the order the recorder handled them.
type Log = Arc<Mutex<Vec<u64>>>;

/// Records each message into a shared log and counts it in metrics.
struct Recorder(Log);

impl Actor<TMsg> for Recorder {
    fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, _from: ActorId, msg: TMsg) {
        if let TMsg::Seq(n) = msg {
            ctx.metrics().count("test.recorded", 1);
            self.0.lock().unwrap().push(n);
        }
    }
}

#[test]
fn worker_metrics_flush_while_running_and_merge_at_shutdown() {
    let rt = LiveRuntime::new(RuntimeConfig {
        metrics_flush: Duration::from_millis(5),
        ..RuntimeConfig::default()
    });
    let log: Log = Arc::default();
    let r = rt.spawn(None, Box::new(Recorder(Arc::clone(&log))));
    for i in 0..50 {
        rt.send_external(r, TMsg::Seq(i));
    }
    let flushed = || rt.metrics_snapshot().counter("test.recorded") == 50;
    assert!(wait_for(flushed, Duration::from_secs(5)), "idle workers flush too");
    assert_eq!(*log.lock().unwrap(), (0..50).collect::<Vec<_>>());
    let (metrics, _) = rt.shutdown();
    assert_eq!(metrics.counter("test.recorded"), 50, "counted once, not per flush");
}
