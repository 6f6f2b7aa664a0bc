//! Agents that start before any master is elected must register with the
//! primary promptly, not at their first heartbeat: on the worker pool all
//! agents run `on_start` within a millisecond, before the election.

use fuxi_agent::{FuxiAgent, MasterFactory, WorkerFactory};
use fuxi_apsara::{LockService, NameRegistry, StoreHandle};
use fuxi_cluster::ClusterConfig;
use fuxi_core::master::FuxiMaster;
use fuxi_proto::topology::TopologyBuilder;
use fuxi_proto::Msg;
use fuxi_rt::{LiveRuntime, RuntimeConfig};
use fuxi_sim::MachineConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn agents_spawned_before_masters_register_soon_after_election() {
    const MACHINES: usize = 20;
    let mut cfg = ClusterConfig::default();
    // The master publishes its engine's capacity into the hub once per
    // window; a short window makes the registration time readable.
    cfg.master.metrics.window_s = 0.02;
    let topo = TopologyBuilder::new()
        .uniform(4, MACHINES / 4, cfg.machine_spec.clone())
        .build();
    let machines = topo
        .machines()
        .map(|m| MachineConfig {
            rack: topo.rack_of(m).0,
            disk_bw_mbps: topo.spec(m).disk_bw_mbps,
            net_bw_mbps: topo.spec(m).net_bw_mbps,
        })
        .collect();
    let rt: LiveRuntime<Msg> = LiveRuntime::new(RuntimeConfig {
        machines,
        ..RuntimeConfig::default()
    });
    let naming = NameRegistry::new();
    let store = StoreHandle::new();
    // No jobs run here, so nothing is ever launched.
    let no_master: MasterFactory = Arc::new(|_| unreachable!("no jobs are submitted"));
    let no_worker: WorkerFactory = Arc::new(|_| unreachable!("no jobs are submitted"));

    let lock = rt.spawn(None, Box::new(LockService::with_defaults()));
    for m in topo.machines() {
        let agent = FuxiAgent::new(
            m,
            topo.spec(m).resources.clone(),
            cfg.agent.clone(),
            naming.clone(),
            no_master.clone(),
            no_worker.clone(),
        );
        rt.spawn(Some(m.0), Box::new(agent));
    }
    let hub = fuxi_obs::MetricsHub::new(cfg.master.metrics.window_s);
    let fm = FuxiMaster::new(
        cfg.master.clone(),
        topo.clone(),
        naming.clone(),
        store,
        lock,
        hub.clone(),
    );
    let all_cpu: u64 = topo.machines().map(|m| topo.spec(m).resources.cpu_milli()).sum();
    rt.spawn(None, Box::new(fm));

    let start = Instant::now();
    while naming.master().is_none() {
        assert!(start.elapsed() < Duration::from_secs(10), "no master elected");
        std::thread::sleep(Duration::from_millis(1));
    }
    let elected = Instant::now();
    // Registered capacity, as the primary's engine last reported it.
    let registered_cpu = || hub.update(|v| v.rollup.total_cpu_milli);
    while registered_cpu() < all_cpu && elected.elapsed() < Duration::from_secs(3) {
        std::thread::sleep(Duration::from_millis(2));
    }
    let took = elected.elapsed();
    assert_eq!(registered_cpu(), all_cpu, "every agent registers");
    assert!(
        took < Duration::from_millis(500),
        "agents registered {took:?} after the election (heartbeat-late)"
    );
    rt.shutdown();
}
