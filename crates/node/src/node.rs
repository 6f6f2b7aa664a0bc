//! `LiveNode`: one deployment node — one OS process — of a topology.
//!
//! Boots a [`fuxi_rt::LiveRuntime`] whose actor ids live in this node's
//! window, spawns exactly the actor groups the [`DeployTopology`] assigns
//! here, and wires the node supervisor (hub or leaf) so every other id in
//! the topology stays routable. The same `DeployTopology` drives
//! single-process mode (`fuxi_rt::LiveCluster::from_topology` flattens
//! it); this runner is the multi-process interpretation.

use crate::supervisor::{HubSupervisor, LeafConfig, LeafSupervisor};
use fuxi_agent::{FuxiAgent, MasterFactory, MasterLaunch, WorkerFactory, WorkerLaunch};
use fuxi_apsara::{LockService, NameRegistry, PanguHandle, StoreHandle};
use fuxi_cluster::deploy::{ActorGroup, DeployTopology, NodeRole};
use fuxi_cluster::{Client, ClientLog, JobState, SubmitOpts};
use fuxi_core::master::FuxiMaster;
use fuxi_job::job_master::JobMaster;
use fuxi_job::worker::TaskWorker;
use fuxi_job::JobDesc;
use fuxi_proto::msg::AppDescription;
use fuxi_proto::topology::{Topology, TopologyBuilder};
use fuxi_proto::{JobId, MachineId, Msg, WireError};
use fuxi_sim::{ActorId, MachineConfig, TraceId};
use fuxi_rt::{LiveRuntime, RuntimeConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

enum Supervisor {
    Hub(HubSupervisor),
    Leaf(LeafSupervisor),
}

/// One booted deployment node.
pub struct LiveNode {
    /// The node's runtime (actor ids windowed by node index).
    pub rt: LiveRuntime<Msg>,
    /// This process's name-service replica.
    pub naming: NameRegistry,
    /// This process's checkpoint-store replica.
    pub store: StoreHandle,
    /// Per-process metrics view (masters publish here; the scrape
    /// endpoint of *this* process serves it).
    pub hub_metrics: fuxi_sim::obs::MetricsHub,
    /// Machine topology (identical in every process).
    pub topo: Arc<Topology>,
    /// The deployment this node belongs to.
    pub deploy: DeployTopology,
    /// This node's index.
    pub node_index: usize,
    /// Actors spawned locally, in spawn order.
    pub local_actors: Vec<ActorId>,
    supervisor: Supervisor,
    log: Option<ClientLog>,
    client: Option<ActorId>,
    dup_finishes: Arc<AtomicU64>,
    next_job: u32,
}

fn machine_topology(deploy: &DeployTopology) -> Arc<Topology> {
    let cfg = &deploy.cluster;
    let mut b = TopologyBuilder::new();
    let full = cfg.n_machines / cfg.rack_size;
    let rem = cfg.n_machines % cfg.rack_size;
    b = b.uniform(full, cfg.rack_size, cfg.machine_spec.clone());
    if rem > 0 {
        b = b.add_rack(vec![cfg.machine_spec.clone(); rem]);
    }
    Arc::new(b.build())
}

impl LiveNode {
    /// Boots node `node_index` of `deploy`. For a leaf, `hub_addr` is the
    /// hub's *actual* address (the topology may have been built with
    /// `":0"`); for the hub it overrides the spec's listen address when
    /// given.
    pub fn boot(
        deploy: DeployTopology,
        node_index: usize,
        hub_addr: Option<&str>,
    ) -> Result<LiveNode, WireError> {
        let cfg = deploy.cluster.clone();
        let spec = deploy.nodes[node_index].clone();
        let topo = machine_topology(&deploy);
        let machines: Vec<MachineConfig> = topo
            .machines()
            .map(|m| MachineConfig {
                rack: topo.rack_of(m).0,
                disk_bw_mbps: topo.spec(m).disk_bw_mbps,
                net_bw_mbps: topo.spec(m).net_bw_mbps,
            })
            .collect();
        let rt: LiveRuntime<Msg> = LiveRuntime::new(RuntimeConfig {
            machines,
            seed: cfg.seed ^ (node_index as u64) << 56,
            obs: cfg.obs.clone(),
            actor_base: deploy.actor_base(node_index),
            ..RuntimeConfig::default()
        });
        let naming = NameRegistry::new();
        let store = StoreHandle::new();
        let pangu = PanguHandle::new(cfg.seed.wrapping_mul(31).wrapping_add(7));
        let hub_metrics = fuxi_sim::obs::MetricsHub::new(cfg.master.metrics.window_s);
        rt.attach_hub(hub_metrics.clone());

        // Factories for JobMasters/workers launched on this node's machines.
        let worker_cfg = cfg.jm.worker.clone();
        let worker_factory: WorkerFactory = Arc::new(move |launch: &WorkerLaunch| {
            Box::new(TaskWorker::from_spec(&launch.spec, worker_cfg.clone()))
        });
        let jm_cfg = cfg.jm.clone();
        let (n2, s2, p2, t2) = (naming.clone(), store.clone(), pangu.clone(), topo.clone());
        let master_factory: MasterFactory = Arc::new(move |launch: &MasterLaunch| {
            Box::new(JobMaster::new(
                launch.app,
                launch.job,
                jm_cfg.clone(),
                n2.clone(),
                s2.clone(),
                p2.clone(),
                t2.clone(),
                launch.desc.payload.clone(),
                launch.desc.master_resource.clone(),
            ))
        });

        // Spawn this node's groups in spec order; ids must land exactly
        // where the topology computed them, or cross-process addressing
        // would silently break.
        let lock_id = deploy.lock_id().id;
        let log: ClientLog = Arc::new(Mutex::new(BTreeMap::new()));
        let dup_finishes = Arc::new(AtomicU64::new(0));
        let mut local_actors = Vec::new();
        let mut client = None;
        let mut hosts_client = false;
        for (gi, group) in spec.actors.iter().enumerate() {
            match group {
                ActorGroup::LockService => {
                    let id = rt.spawn(None, Box::new(LockService::with_defaults()));
                    assert_eq!(id, deploy.actor_id(node_index, gi, 0));
                    local_actors.push(id);
                }
                ActorGroup::Master => {
                    let id = rt.spawn(
                        None,
                        Box::new(FuxiMaster::new(
                            cfg.master.clone(),
                            (*topo).clone(),
                            naming.clone(),
                            store.clone(),
                            lock_id,
                            hub_metrics.clone(),
                        )),
                    );
                    assert_eq!(id, deploy.actor_id(node_index, gi, 0));
                    local_actors.push(id);
                }
                ActorGroup::Agents { first, count } => {
                    for k in 0..*count {
                        let m = MachineId(first + k);
                        let id = rt.spawn(
                            Some(m.0),
                            Box::new(FuxiAgent::new(
                                m,
                                topo.spec(m).resources.clone(),
                                cfg.agent.clone(),
                                naming.clone(),
                                master_factory.clone(),
                                worker_factory.clone(),
                            )),
                        );
                        assert_eq!(id, deploy.actor_id(node_index, gi, k));
                        local_actors.push(id);
                    }
                }
                ActorGroup::Client => {
                    let id = rt.spawn(
                        None,
                        Box::new(Client::new(
                            naming.clone(),
                            log.clone(),
                            Arc::clone(&dup_finishes),
                        )),
                    );
                    assert_eq!(id, deploy.actor_id(node_index, gi, 0));
                    client = Some(id);
                    hosts_client = true;
                    local_actors.push(id);
                }
            }
        }

        // Wire the supervisor: router out, injector in, liveness oracle.
        let inject = rt.remote_injector();
        let supervisor = match spec.role {
            NodeRole::Hub => {
                let listen = hub_addr
                    .map(str::to_owned)
                    .or_else(|| spec.addr.clone())
                    .unwrap_or_else(|| "127.0.0.1:0".to_owned());
                let hub = HubSupervisor::start(
                    &listen,
                    &spec.name,
                    naming.clone(),
                    store.clone(),
                    inject,
                )?;
                rt.set_remote_router(hub.router());
                rt.set_remote_alive(hub.remote_alive());
                Supervisor::Hub(hub)
            }
            NodeRole::Leaf => {
                let addr = hub_addr
                    .map(str::to_owned)
                    .or_else(|| deploy.nodes[deploy.hub_index()].addr.clone())
                    .expect("leaf needs the hub address");
                let leaf = LeafSupervisor::start(
                    &addr,
                    LeafConfig::new(&spec.name, node_index as u32),
                    naming.clone(),
                    store.clone(),
                    inject,
                );
                rt.set_remote_router(leaf.router());
                rt.set_remote_alive(leaf.remote_alive());
                Supervisor::Leaf(leaf)
            }
        };

        Ok(LiveNode {
            rt,
            naming,
            store,
            hub_metrics,
            topo,
            deploy,
            node_index,
            local_actors,
            supervisor,
            log: hosts_client.then_some(log),
            client,
            dup_finishes,
            next_job: 1,
        })
    }

    /// The hub's bound listen address (hub nodes only).
    pub fn hub_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.supervisor {
            Supervisor::Hub(h) => Some(h.addr()),
            Supervisor::Leaf(_) => None,
        }
    }

    /// Hub: blocks until leaves `1..=n` connected. Leaf: blocks until the
    /// hub link is up (`n` ignored).
    pub fn wait_connected(&self, n: u32, timeout: Duration) -> bool {
        match &self.supervisor {
            Supervisor::Hub(h) => h.wait_peers(n, timeout),
            Supervisor::Leaf(l) => l.wait_connected(timeout),
        }
    }

    /// `true` while node `i`'s link is up (hub) / the hub link is up (leaf).
    pub fn peer_up(&self, node_index: u32) -> bool {
        match &self.supervisor {
            Supervisor::Hub(h) => h.peer_up(node_index),
            Supervisor::Leaf(l) => l.connected(),
        }
    }

    /// Fault injection (leaf only): hard-close the hub link mid-flight.
    pub fn sever_link(&self) {
        if let Supervisor::Leaf(l) = &self.supervisor {
            l.sever();
        }
    }

    /// Hub frame-relay counters `(relayed, dropped, accepted)`; zeros on
    /// leaves.
    pub fn hub_stats(&self) -> (u64, u64, u64) {
        match &self.supervisor {
            Supervisor::Hub(h) => h.stats(),
            Supervisor::Leaf(_) => (0, 0, 0),
        }
    }

    /// Leaf reconnect count (0 for hubs).
    pub fn reconnects(&self) -> u64 {
        match &self.supervisor {
            Supervisor::Hub(_) => 0,
            Supervisor::Leaf(l) => l.reconnects(),
        }
    }

    /// Starts the HTTP scrape endpoint serving this process's metrics.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        fuxi_rt::scrape::serve(self.hub_metrics.clone(), addr)
    }

    /// Submits a job (client-hosting nodes only); returns its id.
    pub fn submit(&mut self, desc: &JobDesc, opts: &SubmitOpts) -> JobId {
        let client = self.client.expect("this node hosts no client");
        let job = JobId(self.next_job);
        self.next_job += 1;
        let app_desc = AppDescription {
            app_type: "fuxi_job".to_owned(),
            quota_group: opts.quota_group,
            priority: opts.priority,
            master_resource: fuxi_proto::ResourceVec::cores_mb(1, 2048),
            master_package_mb: opts.master_package_mb,
            payload: desc.to_json(),
        };
        self.rt.send_external_traced(
            client,
            Msg::SubmitJob {
                job,
                desc: app_desc,
                client,
            },
            TraceId::from_job(job.0),
        );
        job
    }

    /// Job state as the client observed it.
    pub fn job_state(&self, job: JobId) -> Option<JobState> {
        self.log.as_ref()?.lock().unwrap().get(&job).cloned()
    }

    /// Number of jobs in a terminal state.
    pub fn finished_count(&self) -> usize {
        self.log
            .as_ref()
            .map(|l| l.lock().unwrap().values().filter(|s| s.done.is_some()).count())
            .unwrap_or(0)
    }

    /// All jobs and their client-observed states.
    pub fn all_jobs(&self) -> Vec<(JobId, JobState)> {
        self.log
            .as_ref()
            .map(|l| {
                l.lock()
                    .unwrap()
                    .iter()
                    .map(|(&j, s)| (j, s.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Blocks until `n` jobs are terminal or `timeout` passes.
    pub fn wait_n_done(&self, n: usize, timeout: Duration) -> usize {
        let start = Instant::now();
        while start.elapsed() < timeout {
            if self.finished_count() >= n {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.finished_count()
    }

    /// The current master according to this process's naming replica.
    pub fn current_master(&self) -> Option<ActorId> {
        self.naming.master()
    }

    /// Duplicate terminal job notifications the client saw (0 = the
    /// exactly-once completion invariant held across failovers).
    pub fn duplicate_finishes(&self) -> u64 {
        self.dup_finishes.load(Ordering::Relaxed)
    }
}
