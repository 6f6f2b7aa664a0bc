//! Spawning actors costs no OS threads: the pool is fixed at start-up.
//! Alone in its own test binary so no other test's threads are counted.

use fuxi_rt::{LiveRuntime, RuntimeConfig};
use fuxi_sim::{Actor, ActorId, Ctx, KernelMsg};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Tick;

impl KernelMsg for Tick {
    fn flow_done(_tag: u64, _failed: bool) -> Self {
        Tick
    }
}

/// Counts its own start.
struct Starter(Arc<AtomicU64>);

impl Actor<Tick> for Starter {
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Tick>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
    fn on_message(&mut self, _: &mut Ctx<'_, Tick>, _: ActorId, _: Tick) {}
}

/// `Threads:` from `/proc/self/status`.
fn os_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn spawning_500_actors_adds_no_os_threads() {
    let rt: LiveRuntime<Tick> = LiveRuntime::new(RuntimeConfig::default());
    let before = os_threads();
    let started = Arc::new(AtomicU64::new(0));
    for _ in 0..500 {
        rt.spawn(None, Box::new(Starter(Arc::clone(&started))));
    }
    let t0 = Instant::now();
    while started.load(Ordering::SeqCst) < 500 {
        assert!(t0.elapsed() < Duration::from_secs(10), "actors never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(os_threads(), before, "actors must not get threads of their own");
    rt.shutdown();
}
