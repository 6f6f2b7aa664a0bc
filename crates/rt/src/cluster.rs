//! A fully wired *live* Fuxi cluster: the same production actors the
//! simulated harness runs — lock service, FuxiMaster pair, one FuxiAgent
//! per machine, JobMaster/TaskWorker factories, a submitting client — but
//! on the worker pool of [`LiveRuntime`] instead of the kernel.
//!
//! The wiring mirrors `fuxi_cluster::Cluster::new` step for step and
//! reuses its [`ClusterConfig`]/[`SubmitOpts`]/[`JobState`] types, so a
//! scenario can be expressed once and run on either engine (the sim↔live
//! parity test does exactly that).

use crate::runtime::{LiveRuntime, RuntimeConfig};
use fuxi_agent::{FuxiAgent, MasterFactory, MasterLaunch, WorkerFactory, WorkerLaunch};
use fuxi_apsara::{LockService, NameRegistry, PanguHandle, StoreHandle};
use fuxi_cluster::deploy::{ActorGroup, DeployTopology};
use fuxi_cluster::{Client, ClientLog, ClusterConfig, JobState, SubmitOpts};
use fuxi_core::master::FuxiMaster;
use fuxi_job::job_master::JobMaster;
use fuxi_job::worker::TaskWorker;
use fuxi_job::JobDesc;
use fuxi_proto::msg::AppDescription;
use fuxi_proto::topology::{Topology, TopologyBuilder};
use fuxi_proto::{JobId, MachineId, Msg};
use fuxi_sim::{ActorId, MachineConfig, Metrics, TraceId, Tracer};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A fully wired live Fuxi cluster.
pub struct LiveCluster {
    /// The live runtime everything runs in.
    pub rt: LiveRuntime<Msg>,
    /// Shared name service.
    pub naming: NameRegistry,
    /// Shared checkpoint store.
    pub store: StoreHandle,
    /// Shared DFS model.
    pub pangu: PanguHandle,
    /// Cluster topology.
    pub topo: Arc<Topology>,
    /// Lock-service actor.
    pub lock: ActorId,
    /// FuxiMaster actors spawned (primary and standbys).
    pub masters: Vec<ActorId>,
    /// Agent actor per machine (index = machine id).
    pub agents: Vec<ActorId>,
    /// Submitting client's actor address.
    pub client: ActorId,
    /// Shared cluster metrics view — what the scrape endpoint serves.
    pub hub: fuxi_sim::obs::MetricsHub,
    log: ClientLog,
    next_job: u32,
}

impl LiveCluster {
    /// Boots a live cluster with the same wiring the simulated harness
    /// builds, driven by the same [`ClusterConfig`]. Equivalent to
    /// flattening [`DeployTopology::single_process`].
    pub fn new(cfg: ClusterConfig) -> Self {
        Self::from_topology(DeployTopology::single_process(cfg))
    }

    /// Boots every actor group of `deploy` — whatever node it is assigned
    /// to — inside **one** process and one runtime. This is the
    /// single-process flattening of the shared topology surface; the
    /// multi-process runner (`fuxi-node`) boots the same topology one
    /// node at a time instead.
    pub fn from_topology(deploy: DeployTopology) -> Self {
        let cfg = deploy.cluster.clone();
        let topo = {
            let mut b = TopologyBuilder::new();
            let full = cfg.n_machines / cfg.rack_size;
            let rem = cfg.n_machines % cfg.rack_size;
            b = b.uniform(full, cfg.rack_size, cfg.machine_spec.clone());
            if rem > 0 {
                b = b.add_rack(vec![cfg.machine_spec.clone(); rem]);
            }
            Arc::new(b.build())
        };
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
            seed: cfg.seed,
            obs: cfg.obs.clone(),
            ..RuntimeConfig::default()
        });
        let naming = NameRegistry::new();
        let store = StoreHandle::new();
        let pangu = PanguHandle::new(cfg.seed.wrapping_mul(31).wrapping_add(7));

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

        // Both masters share one hub, and the runtime's clock thread
        // samples mailbox depths into the same view (satellite: queue
        // gauges are windowed series, not just a high-water mark).
        let hub = fuxi_sim::obs::MetricsHub::new(cfg.master.metrics.window_s);
        rt.attach_hub(hub.clone());

        // Spawn every group of every node, in topology order. The lock
        // service always precedes the masters in the canonical layouts,
        // so its id is known by the time a master needs it.
        let log: ClientLog = Arc::new(Mutex::new(BTreeMap::new()));
        let mut lock = ActorId::NONE;
        let mut masters = Vec::new();
        let mut agents = Vec::new();
        let mut client = ActorId::NONE;
        for node in &deploy.nodes {
            for group in &node.actors {
                match group {
                    ActorGroup::LockService => {
                        lock = rt.spawn(None, Box::new(LockService::with_defaults()));
                    }
                    ActorGroup::Master => {
                        assert_ne!(lock, ActorId::NONE, "lock service must precede masters");
                        masters.push(rt.spawn(
                            None,
                            Box::new(FuxiMaster::new(
                                cfg.master.clone(),
                                (*topo).clone(),
                                naming.clone(),
                                store.clone(),
                                lock,
                                hub.clone(),
                            )),
                        ));
                    }
                    ActorGroup::Agents { first, count } => {
                        for k in *first..(*first + *count) {
                            let m = MachineId(k);
                            agents.push(rt.spawn(
                                Some(m.0),
                                Box::new(FuxiAgent::new(
                                    m,
                                    topo.spec(m).resources.clone(),
                                    cfg.agent.clone(),
                                    naming.clone(),
                                    master_factory.clone(),
                                    worker_factory.clone(),
                                )),
                            ));
                        }
                    }
                    ActorGroup::Client => {
                        let c = Client::new(naming.clone(), log.clone(), Arc::default());
                        client = rt.spawn(None, Box::new(c));
                    }
                }
            }
        }

        Self {
            rt,
            naming,
            store,
            pangu,
            topo,
            lock,
            masters,
            agents,
            client,
            hub,
            log,
            next_job: 1,
        }
    }

    /// Starts the HTTP scrape endpoint on `addr` (e.g. `"127.0.0.1:9090"`)
    /// serving this cluster's view; returns the bound address.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        crate::scrape::serve(self.hub.clone(), addr)
    }

    /// Submits a job description; returns its id immediately.
    pub fn submit(&mut self, desc: &JobDesc, opts: &SubmitOpts) -> JobId {
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
            self.client,
            Msg::SubmitJob {
                job,
                desc: app_desc,
                client: self.client,
            },
            TraceId::from_job(job.0),
        );
        job
    }

    /// Job state as the client observed it.
    pub fn job_state(&self, job: JobId) -> Option<JobState> {
        self.log.lock().unwrap().get(&job).cloned()
    }

    /// `Some((success, finish_time_s))` once the job reached a terminal
    /// state.
    pub fn job_done(&self, job: JobId) -> Option<(bool, f64)> {
        self.log
            .lock()
            .unwrap()
            .get(&job)
            .and_then(|st| st.done.as_ref().map(|&(ok, t, _)| (ok, t)))
    }

    /// Number of jobs in a terminal state.
    pub fn finished_count(&self) -> usize {
        self.log
            .lock()
            .unwrap()
            .values()
            .filter(|s| s.done.is_some())
            .count()
    }

    /// All jobs and their client-observed states.
    pub fn all_jobs(&self) -> Vec<(JobId, JobState)> {
        self.log
            .lock()
            .unwrap()
            .iter()
            .map(|(&j, s)| (j, s.clone()))
            .collect()
    }

    /// Blocks until `n` jobs are terminal or `timeout` passes; returns how
    /// many finished.
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

    /// The actor currently holding the master role.
    pub fn current_master(&self) -> Option<ActorId> {
        self.naming.master()
    }

    /// Kills the current primary FuxiMaster (the paper's
    /// FuxiMasterFailure fault) — live, mid-run.
    pub fn kill_primary_master(&self) {
        if let Some(fm) = self.naming.master() {
            self.rt.kill_actor(fm);
        }
    }

    /// Takes a machine down (NodeDown fault).
    pub fn kill_machine(&self, m: MachineId) {
        self.rt.kill_machine(m.0);
    }

    /// Stops the cluster and returns the merged metrics and tracer.
    pub fn shutdown(self) -> (Metrics, Tracer) {
        self.rt.shutdown()
    }
}
