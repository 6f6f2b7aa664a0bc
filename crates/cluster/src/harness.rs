//! Cluster construction and control.

use fuxi_agent::{AgentConfig, FuxiAgent, MasterFactory, MasterLaunch, WorkerFactory, WorkerLaunch};
use fuxi_apsara::{LockService, NameRegistry, PanguHandle, StoreHandle};
use fuxi_core::master::{FuxiMaster, MasterConfig};
use fuxi_job::job_master::{JobMaster, JobMasterConfig};
use fuxi_job::worker::TaskWorker;
use fuxi_job::JobDesc;
use fuxi_proto::msg::AppDescription;
use fuxi_proto::topology::{MachineSpec, Topology, TopologyBuilder};
use fuxi_proto::{AppId, JobId, MachineId, Msg, Priority, QuotaGroupId};
use fuxi_sim::{
    Actor, ActorId, Ctx, MachineConfig, NetConfig, SimDuration, SimTime, TraceId, TracerConfig,
    World, WorldConfig,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of machines in the cluster.
    pub n_machines: usize,
    /// Machines per rack.
    pub rack_size: usize,
    /// Hardware description of every machine.
    pub machine_spec: MachineSpec,
    /// Deterministic RNG seed.
    pub seed: u64,
    /// Network latency/loss model.
    pub net: NetConfig,
    /// FuxiMaster configuration.
    pub master: MasterConfig,
    /// FuxiAgent configuration.
    pub agent: AgentConfig,
    /// JobMaster configuration applied to every job.
    pub jm: JobMasterConfig,
    /// Spawn a hot-standby FuxiMaster alongside the primary.
    pub standby_master: bool,
    /// Sampling interval for the utilization series (Figure 10).
    pub sample_interval: SimDuration,
    /// Observability configuration (tracer, flight recorder).
    pub obs: TracerConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            n_machines: 20,
            rack_size: 5,
            machine_spec: MachineSpec::default(),
            seed: 1,
            net: NetConfig::default(),
            master: MasterConfig::default(),
            agent: AgentConfig::default(),
            jm: JobMasterConfig::default(),
            standby_master: false,
            sample_interval: SimDuration::from_secs(1),
            obs: TracerConfig::default(),
        }
    }
}

/// Submission options.
#[derive(Debug, Clone)]
pub struct SubmitOpts {
    /// Scheduling priority.
    pub priority: Priority,
    /// Quota group the job bills against.
    pub quota_group: QuotaGroupId,
    /// Master binary package size, MB.
    pub master_package_mb: f64,
}

impl Default for SubmitOpts {
    fn default() -> Self {
        Self {
            priority: Priority::DEFAULT,
            quota_group: QuotaGroupId(0),
            master_package_mb: 100.0,
        }
    }
}

/// Client-observed job state.
#[derive(Debug, Clone, Default)]
pub struct JobState {
    /// Submission time, seconds.
    pub submitted_s: f64,
    /// Whether FuxiMaster acknowledged the submission.
    pub accepted: bool,
    /// Terminal state: (success, finish time, message).
    pub done: Option<(bool, f64, String)>,
    /// The app whose run produced `done`.
    pub finished_app: Option<AppId>,
}

/// Every job the client has seen, with its client-observed state.
pub type ClientLog = Arc<Mutex<BTreeMap<JobId, JobState>>>;

/// The client actor: submits jobs to the current master (retrying
/// unaccepted submissions across failovers) and records outcomes. The sim
/// harness, the live cluster and the multi-process node all run this one
/// actor.
pub struct Client {
    naming: NameRegistry,
    log: ClientLog,
    pending: BTreeMap<JobId, AppDescription>,
    /// Duplicate terminal notifications observed (must stay 0: exactly-once
    /// job completion is the invariant failover must preserve).
    dup_finishes: Arc<AtomicU64>,
}

impl Client {
    /// A client recording into `log` and counting duplicate finishes into
    /// `dup_finishes`.
    pub fn new(naming: NameRegistry, log: ClientLog, dup_finishes: Arc<AtomicU64>) -> Self {
        Client {
            naming,
            log,
            pending: BTreeMap::new(),
            dup_finishes,
        }
    }
}

impl Actor<Msg> for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.timer(SimDuration::from_secs(2), 1);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ActorId, msg: Msg) {
        match msg {
            Msg::SubmitJob { job, desc, .. } => {
                self.log.lock().unwrap().entry(job).or_insert(JobState {
                    submitted_s: ctx.now().as_secs_f64(),
                    ..Default::default()
                });
                self.pending.insert(job, desc.clone());
                if let Some(fm) = self.naming.master() {
                    ctx.send(
                        fm,
                        Msg::SubmitJob {
                            job,
                            desc,
                            client: ctx.id(),
                        },
                    );
                }
            }
            Msg::JobAccepted { job, .. } => {
                if let Some(st) = self.log.lock().unwrap().get_mut(&job) {
                    st.accepted = true;
                }
                self.pending.remove(&job);
            }
            Msg::JobFinished {
                job,
                app,
                success,
                message,
            } => {
                // A finish also settles a submission whose JobAccepted was
                // lost: resubmitting it would run the job again.
                self.pending.remove(&job);
                if let Some(st) = self.log.lock().unwrap().get_mut(&job) {
                    match st.finished_app {
                        // The master re-sent the outcome of the recorded
                        // run (answering a late resubmission).
                        Some(prev) if prev == app => return,
                        // A second run of the job finished.
                        Some(_) => {
                            self.dup_finishes.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {}
                    }
                    st.finished_app = Some(app);
                    st.done = Some((success, ctx.now().as_secs_f64(), message));
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
        // Retry unaccepted submissions (master may have failed over). Each
        // retry re-opens the job's causal trace so a post-failover resubmit
        // joins the same chain as the original.
        if let Some(fm) = self.naming.master() {
            for (&job, desc) in &self.pending {
                ctx.send_traced(
                    fm,
                    Msg::SubmitJob {
                        job,
                        desc: desc.clone(),
                        client: ctx.id(),
                    },
                    TraceId::from_job(job.0),
                );
            }
        }
        ctx.timer(SimDuration::from_secs(2), 1);
    }
}

/// Samples shared gauges into the Figure 10 time series.
struct Sampler {
    interval: SimDuration,
}

impl Actor<Msg> for Sampler {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        ctx.timer(self.interval, 1);
    }
    fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ActorId, _: Msg) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
        let t = ctx.now().as_secs_f64();
        let m = ctx.metrics();
        for g in [
            "am.obtained_mem_mb",
            "am.obtained_cpu_milli",
            "fa.planned_mem_mb",
            "fa.planned_cpu_milli",
        ] {
            let v = m.gauge(g);
            m.push_series(g, t, v);
        }
        ctx.timer(self.interval, 1);
    }
}

/// A fully wired simulated Fuxi cluster.
pub struct Cluster {
    /// The simulated world everything runs in.
    pub world: World<Msg>,
    /// Shared name service.
    pub naming: NameRegistry,
    /// Shared cluster metrics view (the scrape endpoint and `fuxitop`
    /// read this; the primary master writes it). Survives failover for
    /// the same reason the name registry does.
    pub hub: fuxi_sim::obs::MetricsHub,
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
    cfg: ClusterConfig,
    log: ClientLog,
    next_job: u32,
    master_factory: MasterFactory,
    worker_factory: WorkerFactory,
}

impl Cluster {
    /// Creates a new instance with the given configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        let topo = {
            // Exactly n_machines: full racks plus a remainder rack.
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
        let mut world: World<Msg> = World::new(WorldConfig {
            machines,
            net: cfg.net.clone(),
            seed: cfg.seed,
            obs: cfg.obs.clone(),
            kernel: fuxi_sim::QueueKernel::default(),
        });
        let naming = NameRegistry::new();
        let store = StoreHandle::new();
        let pangu = PanguHandle::new(cfg.seed.wrapping_mul(31).wrapping_add(7));

        let lock = world.spawn(None, Box::new(LockService::with_defaults()));

        // Factories: the simulation counterpart of downloaded binaries.
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

        // Masters: primary (+ optional hot standby). Both share one hub —
        // a promoted standby inherits the pending-age clocks and alert
        // history of the master it replaces.
        let hub = fuxi_sim::obs::MetricsHub::new(cfg.master.metrics.window_s);
        let mut masters = Vec::new();
        let n_masters = if cfg.standby_master { 2 } else { 1 };
        for _ in 0..n_masters {
            let m = world.spawn(
                None,
                Box::new(FuxiMaster::new(
                    cfg.master.clone(),
                    (*topo).clone(),
                    naming.clone(),
                    store.clone(),
                    lock,
                    hub.clone(),
                )),
            );
            masters.push(m);
        }

        // One agent per machine.
        let mut agents = Vec::new();
        for m in topo.machines() {
            let a = world.spawn(
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
            agents.push(a);
        }

        let log: ClientLog = Arc::new(Mutex::new(BTreeMap::new()));
        let client = world.spawn(
            None,
            Box::new(Client::new(naming.clone(), log.clone(), Arc::default())),
        );
        world.spawn(
            None,
            Box::new(Sampler {
                interval: cfg.sample_interval,
            }),
        );

        Self {
            world,
            naming,
            hub,
            store,
            pangu,
            topo,
            lock,
            masters,
            agents,
            client,
            cfg,
            log,
            next_job: 1,
            master_factory,
            worker_factory,
        }
    }

    // ------------------------------------------------------------------
    // Jobs
    // ------------------------------------------------------------------

    /// Submits a job description; returns its id.
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
        // The causal trace opens here: everything downstream of this
        // submission inherits `TraceId::from_job(job)` via the kernel's
        // delivery envelopes.
        self.world.send_external_traced(
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

    /// Job state.
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

    /// Finished count.
    pub fn finished_count(&self) -> usize {
        self.log.lock().unwrap().values().filter(|s| s.done.is_some()).count()
    }

    /// All jobs.
    pub fn all_jobs(&self) -> Vec<(JobId, JobState)> {
        self.log
            .lock()
            .unwrap()
            .iter()
            .map(|(&j, s)| (j, s.clone()))
            .collect()
    }

    // ------------------------------------------------------------------
    // Running
    // ------------------------------------------------------------------

    /// Run until.
    pub fn run_until(&mut self, t: SimTime) {
        self.world.run_until(t);
    }

    /// Run for.
    pub fn run_for(&mut self, d: SimDuration) {
        self.world.run_for(d);
    }

    /// Runs until the job finishes or the deadline passes.
    pub fn run_until_job_done(&mut self, job: JobId, deadline: SimTime) -> Option<(bool, f64)> {
        let log = self.log.clone();
        self.world.run_until_cond(deadline, move |_| {
            log.lock()
            .unwrap()
                .get(&job)
                .map(|s| s.done.is_some())
                .unwrap_or(false)
        });
        self.job_done(job)
    }

    /// Runs until a metrics counter reaches `n` or the deadline passes.
    pub fn run_until_counter(&mut self, name: &'static str, n: u64, deadline: SimTime) -> u64 {
        self.world
            .run_until_cond(deadline, move |w| w.metrics().counter(name) >= n);
        self.world.metrics().counter(name)
    }

    /// Runs until `n` jobs have finished or the deadline passes; returns
    /// how many finished.
    pub fn run_until_n_done(&mut self, n: usize, deadline: SimTime) -> usize {
        let log = self.log.clone();
        self.world.run_until_cond(deadline, move |_| {
            log.lock().unwrap().values().filter(|s| s.done.is_some()).count() >= n
        });
        self.finished_count()
    }

    // ------------------------------------------------------------------
    // Failover & fault controls
    // ------------------------------------------------------------------

    /// The actor currently holding the master role.
    pub fn current_master(&self) -> Option<ActorId> {
        self.naming.master()
    }

    /// Kills the current primary FuxiMaster (the paper's
    /// FuxiMasterFailure fault).
    pub fn kill_primary_master(&mut self) {
        if let Some(fm) = self.naming.master() {
            self.world.kill_actor(fm);
        }
    }

    /// Spawns a fresh standby master (e.g. to replace a killed primary).
    pub fn spawn_standby_master(&mut self) -> ActorId {
        let m = self.world.spawn(
            None,
            Box::new(FuxiMaster::new(
                self.cfg.master.clone(),
                (*self.topo).clone(),
                self.naming.clone(),
                self.store.clone(),
                self.lock,
                self.hub.clone(),
            )),
        );
        self.masters.push(m);
        m
    }

    /// Kills only the agent process on `m` (workers survive — the agent
    /// failover scenario). Returns the old agent actor.
    pub fn kill_agent(&mut self, m: MachineId) -> ActorId {
        let old = self.agents[m.0 as usize];
        self.world.kill_actor(old);
        old
    }

    /// Starts a new agent on `m` (it adopts surviving processes).
    pub fn respawn_agent(&mut self, m: MachineId) -> ActorId {
        let a = self.world.spawn(
            Some(m.0),
            Box::new(FuxiAgent::new(
                m,
                self.topo.spec(m).resources.clone(),
                self.cfg.agent.clone(),
                self.naming.clone(),
                self.master_factory.clone(),
                self.worker_factory.clone(),
            )),
        );
        self.agents[m.0 as usize] = a;
        a
    }

    /// Machine the current JobMaster of `job` runs on, located via the
    /// machines' process tables (test helper).
    pub fn find_jobmaster(&self, job: JobId) -> Option<(MachineId, ActorId)> {
        for m in self.topo.machines() {
            if !self.world.machine_up(m.0) {
                continue;
            }
            for (actor, meta) in self.world.procs_on(m.0) {
                if let Some(fuxi_agent::ProcMeta::JobMaster { job: j, .. }) =
                    fuxi_agent::ProcMeta::decode(&meta)
                {
                    if j == job {
                        return Some((m, actor));
                    }
                }
            }
        }
        None
    }

    /// Worker actors of `job`'s app currently alive on `m` (test helper).
    pub fn workers_on(&self, m: MachineId) -> Vec<ActorId> {
        self.world
            .procs_on(m.0)
            .into_iter()
            .filter(|(_, meta)| {
                matches!(
                    fuxi_agent::ProcMeta::decode(meta),
                    Some(fuxi_agent::ProcMeta::Worker { .. })
                )
            })
            .map(|(a, _)| a)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stands in for the master; counts the submissions it receives.
    struct SubmitCounter(Arc<AtomicU64>);

    impl Actor<Msg> for SubmitCounter {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: ActorId, msg: Msg) {
            if let Msg::SubmitJob { .. } = msg {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn job_finished_settles_an_unaccepted_submission() {
        let mut world: World<Msg> = World::new(WorldConfig::uniform(2, 2, 1));
        let naming = NameRegistry::new();
        let log = ClientLog::default();
        let client = world.spawn(None, Box::new(Client::new(naming.clone(), log, Arc::default())));
        // No master is named yet, so the submission waits in `pending`;
        // then its finish arrives without a JobAccepted ever having come.
        let opts = SubmitOpts::default();
        let desc = AppDescription {
            app_type: "fuxi_job".to_owned(),
            quota_group: opts.quota_group,
            priority: opts.priority,
            master_resource: fuxi_proto::ResourceVec::cores_mb(1, 2048),
            master_package_mb: opts.master_package_mb,
            payload: String::new(),
        };
        let job = JobId(1);
        world.send_external(client, Msg::SubmitJob { job, desc, client });
        let message = String::new();
        let (app, success) = (AppId(1), true);
        world.send_external(client, Msg::JobFinished { job, app, success, message });
        world.run_until(SimTime::from_secs(1));
        let submits = Arc::new(AtomicU64::new(0));
        let fm = world.spawn(None, Box::new(SubmitCounter(Arc::clone(&submits))));
        naming.register(fuxi_apsara::naming::FUXI_MASTER, fm);
        world.run_until(SimTime::from_secs(5));
        assert_eq!(submits.load(Ordering::Relaxed), 0, "a finished job is never resubmitted");
    }

    #[test]
    fn repeated_outcome_of_one_run_is_not_a_duplicate_finish() {
        let mut world: World<Msg> = World::new(WorldConfig::uniform(2, 2, 1));
        let log = ClientLog::default();
        let dups = Arc::new(AtomicU64::new(0));
        let c = Client::new(NameRegistry::new(), log.clone(), Arc::clone(&dups));
        let client = world.spawn(None, Box::new(c));
        let job = JobId(1);
        let desc = AppDescription {
            app_type: "fuxi_job".to_owned(),
            quota_group: QuotaGroupId(0),
            priority: Priority(0),
            master_resource: fuxi_proto::ResourceVec::cores_mb(1, 2048),
            master_package_mb: 0.0,
            payload: String::new(),
        };
        world.send_external(client, Msg::SubmitJob { job, desc, client });
        let finish = |app| Msg::JobFinished {
            job,
            app: AppId(app),
            success: true,
            message: String::new(),
        };
        // The master answers a late resubmission with the same outcome.
        world.send_external(client, finish(1));
        world.send_external(client, finish(1));
        world.run_until(SimTime::from_secs(1));
        assert_eq!(dups.load(Ordering::Relaxed), 0, "one run, told twice");
        assert_eq!(log.lock().unwrap()[&job].finished_app, Some(AppId(1)));
        // A second run under another app is a duplicate finish.
        world.send_external(client, finish(2));
        world.run_until(SimTime::from_secs(2));
        assert_eq!(dups.load(Ordering::Relaxed), 1, "two runs finished");
    }
}
