//! The live runtime: actors on a fixed pool of worker threads, timers on a
//! real clock, one lazily grown mailbox per actor.
//!
//! The same actor code that runs under the deterministic kernel runs here
//! unchanged — handlers see a [`Ctx`] whose live backend is implemented by
//! [`TurnCtx`] below. What changes is the execution substrate:
//!
//! * **Execution** is a fixed pool of worker threads (one per available
//!   core by default) taking ready actors off one FIFO run queue. An actor
//!   is *scheduled* while it is on the queue or running; the flag lives
//!   under its mailbox lock, so at most one worker runs a given actor at a
//!   time. A turn handles at most `TURN_BATCH` (32) envelopes and then puts a
//!   still-busy actor at the back of the queue, so a flooded FuxiMaster
//!   cannot starve the lock service's keepalives.
//! * **Delivery** goes through the destination's [`Mailbox`]. A given
//!   sender's messages to a given destination arrive in send order (the
//!   kernel's per-source FIFO guarantee, restricted to each destination
//!   pair); there is no global order across destinations. At the bound,
//!   threads outside the pool block, the clock thread retries next tick,
//!   and pool workers enqueue anyway and count `rt.mailbox_parked`.
//! * **Timers** live in a hashed [`TimerWheel`] owned by one clock thread,
//!   which also drives the shared [`FlowNet`] I/O model on wall time.
//! * **Observability** is split by what it is about. `Metrics` are per
//!   worker (lock-free hot path), flushed on the `metrics_flush` cadence
//!   and merged at shutdown. Each actor owns its RNG, its current trace and
//!   its `Tracer`, which move with it between workers, so a flight dump
//!   freezes only the dumping actor's ring. A killed actor's tracer is
//!   folded into its last worker's and the actor is dropped.
//!
//! Determinism is deliberately traded away: two runs of the same workload
//! interleave differently. The sim↔live parity test pins down what must
//! still agree — terminal job outcomes, not schedules.

use crate::mailbox::{AtBound, Mailbox, PushOutcome, TurnEnd};
use crate::timer::TimerWheel;
use fuxi_sim::{
    Actor, ActorId, FlowDone, FlowNet, FlowSpec, KernelMsg, LiveCtxOps, MachineConfig, Metrics,
    SimDuration, SimTime,
};
use fuxi_sim::{Ctx, TracerConfig};
use fuxi_obs::{SpanKind, TraceEvent, TraceId, Tracer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Envelopes one worker turn handles before a busy actor goes to the back
/// of the run queue.
const TURN_BATCH: usize = 32;

/// Live-runtime construction parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Hardware description per machine (same shape the kernel takes).
    pub machines: Vec<MachineConfig>,
    /// Seed from which every actor's RNG is derived.
    pub seed: u64,
    /// Observability configuration applied to each per-actor tracer.
    pub obs: TracerConfig,
    /// Mailbox bound: beyond this depth external senders block, the clock
    /// thread retries, and pool workers overrun (counted).
    pub mailbox_capacity: usize,
    /// Timer-wheel granularity.
    pub timer_tick: Duration,
    /// How often each worker folds its private metrics into the
    /// runtime-global sink (and the clock thread samples mailbox depths).
    /// Sub-second values make the scrape endpoint near-live; the shutdown
    /// merge still catches whatever accumulated since the last flush.
    pub metrics_flush: Duration,
    /// First actor id this runtime assigns (`node_index <<`
    /// [`ACTOR_WINDOW_SHIFT`]). In a multi-process deployment every node
    /// numbers its actors inside its own window, so an [`ActorId`] is
    /// globally routable; ids outside this runtime's window go to the
    /// remote router (or count as dead when none is installed).
    pub actor_base: u32,
}

/// Width of one node's actor-id window: ids `base .. base + 2^24` are
/// local to the node whose base is `node_index << 24` (canonically
/// defined on [`ActorId`]).
pub const ACTOR_WINDOW_SHIFT: u32 = ActorId::NODE_WINDOW_SHIFT;

/// `true` when two ids live in the same node window.
#[inline]
pub fn same_window(a: u32, b: u32) -> bool {
    (a >> ACTOR_WINDOW_SHIFT) == (b >> ACTOR_WINDOW_SHIFT)
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            machines: Vec::new(),
            seed: 1,
            obs: TracerConfig::default(),
            mailbox_capacity: 8192,
            timer_tick: Duration::from_millis(2),
            metrics_flush: Duration::from_secs(1),
            actor_base: 0,
        }
    }
}

/// Callback delivering a message whose destination lives in another
/// process: `(from, to, msg)`. Installed by the node supervisor.
pub type RemoteRouter<M> = Box<dyn Fn(ActorId, ActorId, M) + Send + Sync>;

/// Liveness oracle for non-local actor ids (typically "is the owning
/// peer's connection up"). Installed by the node supervisor.
pub type RemoteAlive = Box<dyn Fn(ActorId) -> bool + Send + Sync>;

/// What lands in an actor's mailbox.
enum Envelope<M> {
    /// Run `on_start` under the spawner's trace.
    Start { trace: TraceId },
    /// Deliver a message; the envelope carries the causal trace like the
    /// kernel's delivery events do.
    Msg {
        from: ActorId,
        msg: M,
        trace: TraceId,
    },
    /// Fire `on_timer(tag)`.
    Timer { tag: u64 },
}

/// Commands to the clock thread.
enum ClockCmd<M> {
    Timer {
        actor: ActorId,
        delay: SimDuration,
        tag: u64,
    },
    DelayedSend {
        from: ActorId,
        to: ActorId,
        msg: M,
        delay: SimDuration,
        trace: TraceId,
    },
    StartFlow {
        owner: ActorId,
        spec: FlowSpec,
    },
    CancelFlows {
        owner: ActorId,
    },
    FailMachine {
        m: u32,
    },
    SetIoSpeed {
        m: u32,
        factor: f64,
    },
    Shutdown,
}

/// What the wheel holds: a due timer or a due delayed delivery.
enum Due<M> {
    Timer { actor: ActorId, tag: u64 },
    Send {
        from: ActorId,
        to: ActorId,
        msg: M,
        trace: TraceId,
    },
}

/// Per-actor state a handler may touch besides the actor itself; it moves
/// between workers with the actor.
struct ActorState {
    rng: SmallRng,
    tracer: Tracer,
    current_trace: TraceId,
}

/// A live actor's code and private state.
struct ActorBody<M> {
    actor: Box<dyn Actor<M> + Send>,
    state: ActorState,
}

/// One registry entry. The body is `None` once the actor has retired; the
/// cell itself stays so its id keeps reading as dead.
struct ActorCell<M> {
    id: ActorId,
    machine: Option<u32>,
    mailbox: Mailbox<Envelope<M>>,
    /// Locked only by the worker running the actor (uncontended: the
    /// mailbox's `scheduled` flag admits one runner at a time).
    body: Mutex<Option<ActorBody<M>>>,
}

type Cell<M> = Arc<ActorCell<M>>;

/// The ready actors, in FIFO order, and the pool's idle/stop bookkeeping.
struct RunQueue<M> {
    state: Mutex<Ready<M>>,
    wake: Condvar,
}

struct Ready<M> {
    cells: VecDeque<Cell<M>>,
    /// Workers waiting on `wake` (a push only signals when one is).
    idle: usize,
    stopping: bool,
}

/// What a worker gets from the run queue.
enum Next<M> {
    Run(Cell<M>),
    /// Nothing became ready within the wait; a chance to flush metrics.
    Idle,
    /// Shutdown and the queue is empty.
    Stop,
}

impl<M> RunQueue<M> {
    fn new() -> Self {
        RunQueue {
            state: Mutex::new(Ready {
                cells: VecDeque::new(),
                idle: 0,
                stopping: false,
            }),
            wake: Condvar::new(),
        }
    }

    fn push(&self, cell: Cell<M>) {
        let mut st = self.state.lock().unwrap();
        st.cells.push_back(cell);
        if st.idle > 0 {
            self.wake.notify_one();
        }
    }

    fn pop(&self, patience: Duration) -> Next<M> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(cell) = st.cells.pop_front() {
                return Next::Run(cell);
            }
            if st.stopping {
                return Next::Stop;
            }
            st.idle += 1;
            let (guard, waited) = self.wake.wait_timeout(st, patience).unwrap();
            st = guard;
            st.idle -= 1;
            if waited.timed_out() && st.cells.is_empty() && !st.stopping {
                return Next::Idle;
            }
        }
    }

    fn stop(&self) {
        self.state.lock().unwrap().stopping = true;
        self.wake.notify_all();
    }
}

struct MachineState {
    up: bool,
    speed: f64,
    launch_ok: bool,
    procs: BTreeMap<ActorId, Vec<u8>>,
}

/// State shared by every thread of one runtime.
struct Shared<M: KernelMsg + Send> {
    epoch: Instant,
    cfg: RuntimeConfig,
    slots: RwLock<Vec<Cell<M>>>,
    machines: RwLock<Vec<MachineState>>,
    clock_tx: Sender<ClockCmd<M>>,
    ready: RunQueue<M>,
    /// Runtime-global sinks: fault events, external sends, shutdown merge.
    metrics: Mutex<Metrics>,
    tracer: Mutex<Tracer>,
    /// Cluster metrics view, if a harness attached one: the clock thread
    /// samples mailbox pressure into it alongside the windowed series.
    hub: Mutex<Option<fuxi_obs::MetricsHub>>,
    /// Outbound path for destinations in other processes.
    remote_router: RwLock<Option<RemoteRouter<M>>>,
    /// Liveness oracle for remote ids (`ctx.alive` on a peer's actor).
    remote_alive: RwLock<Option<RemoteAlive>>,
    /// The first handler panic, re-raised by `shutdown`.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<M: KernelMsg + Send + 'static> Shared<M> {
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    /// `true` when `id` belongs to this runtime's actor-id window.
    fn is_local(&self, id: ActorId) -> bool {
        same_window(id.0, self.cfg.actor_base)
    }

    /// The registry entry of a local id, if it was ever spawned.
    fn cell(&self, id: ActorId) -> Option<Cell<M>> {
        if !self.is_local(id) {
            return None;
        }
        let slots = self.slots.read().unwrap();
        slots.get((id.0 - self.cfg.actor_base) as usize).cloned()
    }

    /// Hands a message for a non-local destination to the remote router.
    /// Only plain messages cross process boundaries — timers, kills and
    /// spawns are strictly node-local. Returns the push verdict.
    fn route_remote(&self, to: ActorId, env: Envelope<M>) -> PushOutcome {
        if to == ActorId::NONE {
            return PushOutcome::Dead; // pre-registration placeholder, never routable
        }
        if let Envelope::Msg { from, msg, .. } = env {
            let router = self.remote_router.read().unwrap();
            if let Some(route) = router.as_ref() {
                route(from, to, msg);
                return PushOutcome::Sent;
            }
        }
        PushOutcome::Dead
    }

    /// Delivers `env` to `to`, scheduling the destination if it was idle.
    /// The registry lock is released before the push (a blocked sender
    /// must never hold it). `Err` hands the envelope back only under
    /// [`AtBound::Refuse`].
    fn deliver(
        &self,
        to: ActorId,
        env: Envelope<M>,
        at_bound: AtBound,
    ) -> Result<PushOutcome, Envelope<M>> {
        if !self.is_local(to) {
            return Ok(self.route_remote(to, env));
        }
        let Some(cell) = self.cell(to) else {
            return Ok(PushOutcome::Dead);
        };
        let pushed = cell.mailbox.push(env, at_bound)?;
        if pushed.wake {
            self.ready.push(cell);
        }
        Ok(pushed.outcome)
    }

    /// Delivery from a thread outside the pool: blocks at the bound.
    fn deliver_blocking(&self, to: ActorId, env: Envelope<M>) {
        let _ = self.deliver(to, env, AtBound::Block);
    }

    /// Inbound delivery from a peer process, keeping the remote sender.
    fn route_in(&self, from: ActorId, to: ActorId, msg: M) {
        self.metrics.lock().unwrap().count("net.remote_in", 1);
        let trace = TraceId::NONE;
        self.deliver_blocking(to, Envelope::Msg { from, msg, trace });
    }

    fn spawn(
        &self,
        machine: Option<u32>,
        actor: Box<dyn Actor<M> + Send>,
        trace: TraceId,
    ) -> ActorId {
        let cell = {
            let mut slots = self.slots.write().unwrap();
            assert!(
                (slots.len() as u32) < (1 << ACTOR_WINDOW_SHIFT),
                "actor-id window exhausted"
            );
            let id = ActorId(self.cfg.actor_base + slots.len() as u32);
            let seed = self
                .cfg
                .seed
                .wrapping_add(u64::from(id.0).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let cell = Arc::new(ActorCell {
                id,
                machine,
                mailbox: Mailbox::new_scheduled(
                    self.cfg.mailbox_capacity,
                    Envelope::Start { trace },
                ),
                body: Mutex::new(Some(ActorBody {
                    actor,
                    state: ActorState {
                        rng: SmallRng::seed_from_u64(seed),
                        tracer: Tracer::new(self.cfg.obs.clone()),
                        current_trace: TraceId::NONE,
                    },
                })),
            });
            slots.push(Arc::clone(&cell));
            cell
        };
        let id = cell.id;
        self.metrics.lock().unwrap().count("rt.actors_spawned", 1);
        self.ready.push(cell);
        id
    }

    /// Closes `id`'s mailbox: it drains what was queued before the kill,
    /// then retires. New sends to it count as dead.
    fn kill(&self, id: ActorId) {
        // Remote actors are killed by their own node.
        let Some(cell) = self.cell(id) else { return };
        match cell.mailbox.close() {
            None => return, // already dead
            Some(true) => self.ready.push(Arc::clone(&cell)),
            Some(false) => {}
        }
        if let Some(m) = cell.machine {
            self.machines.write().unwrap()[m as usize].procs.remove(&id);
        }
        let _ = self.clock_tx.send(ClockCmd::CancelFlows { owner: id });
    }

    fn alive(&self, id: ActorId) -> bool {
        if !self.is_local(id) {
            // A peer's actor is presumed alive while its connection is up;
            // with no supervisor installed, remote ids are dead (matches
            // the old out-of-range behaviour).
            return self
                .remote_alive
                .read()
                .unwrap()
                .as_ref()
                .is_some_and(|f| f(id));
        }
        self.cell(id).is_some_and(|c| c.mailbox.is_open())
    }

    fn machine_of(&self, id: ActorId) -> Option<u32> {
        self.cell(id).and_then(|c| c.machine)
    }

    /// Samples mailbox pressure: per-actor depth gauges for non-empty
    /// queues, the global depth/high-water gauges, a windowed depth series
    /// (so a pressure spike between scrapes still shows up), and — when a
    /// hub is attached — the cluster view's mailbox fields.
    fn sample_mailboxes(&self) {
        let t = self.now().as_secs_f64();
        let mut total = 0usize;
        let mut hwm = 0usize;
        {
            let slots = self.slots.read().unwrap();
            let mut metrics = self.metrics.lock().unwrap();
            for (i, c) in slots.iter().enumerate() {
                let gauges = c.mailbox.gauges();
                hwm = hwm.max(gauges.hwm());
                let depth = gauges.depth();
                if depth > 0 && c.mailbox.is_open() {
                    metrics.gauge_set(&format!("rt.mailbox_depth.a{i}"), depth as f64);
                    total += depth;
                }
            }
            metrics.gauge_set("rt.mailbox_depth", total as f64);
            metrics.gauge_max("rt.mailbox_hwm", hwm as f64);
            metrics.window_sample("rt.mailbox_depth.w", t, total as f64);
        }
        let hub = self.hub.lock().unwrap().clone();
        if let Some(hub) = hub {
            hub.update(|v| {
                v.mailbox_depth = total as u64;
                v.mailbox_hwm = v.mailbox_hwm.max(hwm as u64);
            });
        }
    }
}

/// A worker's private observability: metrics for every actor it runs and
/// the folded tracers of the actors that retired on it.
struct WorkerSinks {
    metrics: Metrics,
    retired: Tracer,
}

/// One pool worker: runs ready actors until shutdown, then returns its
/// sinks for the shutdown merge.
fn worker_loop<M: KernelMsg + Send + 'static>(
    shared: Arc<Shared<M>>,
    index: usize,
    of: usize,
) -> WorkerSinks {
    let flush_every = shared.cfg.metrics_flush;
    let patience = if flush_every > Duration::ZERO {
        flush_every
    } else {
        Duration::from_secs(1)
    };
    let mut sinks = WorkerSinks {
        metrics: Metrics::new(),
        retired: Tracer::new(shared.cfg.obs.clone()),
    };
    let mut batch = Vec::with_capacity(TURN_BATCH);
    // Stagger the workers' flush phases across the interval so they do
    // not all take the shared sink's mutex in the same instant.
    let phase = flush_every.mul_f64(index as f64 / of.max(1) as f64);
    let mut last_flush = Instant::now().checked_sub(phase).unwrap_or_else(Instant::now);
    loop {
        match shared.ready.pop(patience) {
            Next::Run(cell) => run_turn(&shared, &cell, &mut sinks, &mut batch),
            Next::Idle => {}
            Next::Stop => return sinks,
        }
        // Periodic flush: fold this worker's private metrics into the
        // runtime-global sink so live scrapes see near-current data
        // instead of waiting for the shutdown merge. Safe because actor
        // code only uses additive instruments (counters, gauge deltas,
        // histograms, windows) whose merge is take-and-sum.
        if flush_every > Duration::ZERO && last_flush.elapsed() >= flush_every {
            let m = std::mem::take(&mut sinks.metrics);
            shared.metrics.lock().unwrap().merge(&m);
            last_flush = Instant::now();
        }
    }
}

/// Runs one turn of `cell`: up to [`TURN_BATCH`] envelopes, then requeue,
/// park idle, or retire the actor if its mailbox was closed and drained.
fn run_turn<M: KernelMsg + Send + 'static>(
    shared: &Arc<Shared<M>>,
    cell: &Cell<M>,
    sinks: &mut WorkerSinks,
    batch: &mut Vec<Envelope<M>>,
) {
    cell.mailbox.take_batch(TURN_BATCH, batch);
    {
        let mut body = cell.body.lock().unwrap();
        if let Some(ActorBody { actor, state }) = body.as_mut() {
            for env in batch.drain(..) {
                let mut tc = TurnCtx {
                    shared,
                    metrics: &mut sinks.metrics,
                    state,
                };
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    dispatch(actor.as_mut(), &mut tc, cell.id, env)
                }));
                if let Err(payload) = run {
                    // The actor is dead from here on: later sends to it
                    // count `net.to_dead`, and shutdown re-raises.
                    shared.panic.lock().unwrap().get_or_insert(payload);
                    shared.kill(cell.id);
                    cell.mailbox.discard();
                    break;
                }
            }
        }
        batch.clear();
    }
    match cell.mailbox.end_turn() {
        TurnEnd::Idle => {}
        TurnEnd::Again => shared.ready.push(Arc::clone(cell)),
        TurnEnd::Closed => {
            // Retire: drop the actor and free its mailbox buffer; only the
            // tracer's output outlives it, in this worker's sink.
            cell.mailbox.discard();
            if let Some(body) = cell.body.lock().unwrap().take() {
                sinks.retired.absorb(body.state.tracer);
            }
        }
    }
}

/// Hands one envelope to the actor's matching handler.
fn dispatch<M: KernelMsg + Send + 'static>(
    actor: &mut (dyn Actor<M> + Send),
    tc: &mut TurnCtx<'_, M>,
    id: ActorId,
    env: Envelope<M>,
) {
    match env {
        Envelope::Start { trace } => {
            tc.state.current_trace = trace;
            actor.on_start(&mut Ctx::for_live(tc, id));
        }
        Envelope::Msg { from, msg, trace } => {
            tc.state.current_trace = trace;
            actor.on_message(&mut Ctx::for_live(tc, id), from, msg);
        }
        Envelope::Timer { tag } => {
            // Like the kernel: timer-driven activity has no inherited
            // causal context unless the actor re-establishes it.
            tc.state.current_trace = TraceId::NONE;
            actor.on_timer(&mut Ctx::for_live(tc, id), tag);
        }
    }
}

/// The live backend of a [`Ctx`] for one handler call: the running
/// worker's metrics plus the actor's own RNG, tracer and trace.
struct TurnCtx<'a, M: KernelMsg + Send + 'static> {
    shared: &'a Shared<M>,
    metrics: &'a mut Metrics,
    state: &'a mut ActorState,
}

impl<M: KernelMsg + Send + 'static> LiveCtxOps<M> for TurnCtx<'_, M> {
    fn now(&self) -> SimTime {
        self.shared.now()
    }

    fn send(&mut self, from: ActorId, to: ActorId, msg: M, extra: SimDuration, trace: TraceId) {
        self.metrics.count("net.sent", 1);
        if extra > SimDuration::ZERO {
            let _ = self.shared.clock_tx.send(ClockCmd::DelayedSend {
                from,
                to,
                msg,
                delay: extra,
                trace,
            });
            return;
        }
        // A worker never parks: at the bound it overruns and counts it.
        match self.shared.deliver(to, Envelope::Msg { from, msg, trace }, AtBound::Overrun) {
            Ok(PushOutcome::Sent) | Err(_) => {}
            Ok(PushOutcome::SentParked) => self.metrics.count("rt.mailbox_parked", 1),
            Ok(PushOutcome::Dead) => self.metrics.count("net.to_dead", 1),
        }
    }

    fn timer(&mut self, actor: ActorId, delay: SimDuration, tag: u64) {
        let _ = self.shared.clock_tx.send(ClockCmd::Timer { actor, delay, tag });
    }

    fn spawn(&mut self, machine: Option<u32>, actor: Box<dyn Actor<M> + Send>) -> ActorId {
        self.shared.spawn(machine, actor, self.state.current_trace)
    }

    fn kill(&mut self, id: ActorId) {
        self.shared.kill(id);
    }

    fn alive(&self, id: ActorId) -> bool {
        self.shared.alive(id)
    }

    fn machine_of(&self, id: ActorId) -> Option<u32> {
        self.shared.machine_of(id)
    }

    fn machine_up(&self, m: u32) -> bool {
        self.shared
            .machines
            .read()
            .unwrap()
            .get(m as usize)
            .is_some_and(|s| s.up)
    }

    fn machine_speed(&self, m: u32) -> f64 {
        self.shared
            .machines
            .read()
            .unwrap()
            .get(m as usize)
            .map_or(1.0, |s| s.speed)
    }

    fn launch_ok(&self, m: u32) -> bool {
        self.shared
            .machines
            .read()
            .unwrap()
            .get(m as usize)
            .is_some_and(|s| s.launch_ok)
    }

    fn rack_of(&self, m: u32) -> u32 {
        self.shared.cfg.machines[m as usize].rack
    }

    fn n_machines(&self) -> usize {
        self.shared.cfg.machines.len()
    }

    fn register_proc(&mut self, id: ActorId, meta: Vec<u8>) {
        if let Some(m) = self.shared.machine_of(id) {
            self.shared.machines.write().unwrap()[m as usize]
                .procs
                .insert(id, meta);
        }
    }

    fn procs_on(&self, m: u32) -> Vec<(ActorId, Vec<u8>)> {
        self.shared.machines.read().unwrap()[m as usize]
            .procs
            .iter()
            .map(|(&a, meta)| (a, meta.clone()))
            .collect()
    }

    fn start_flow(&mut self, owner: ActorId, spec: FlowSpec) {
        let _ = self.shared.clock_tx.send(ClockCmd::StartFlow { owner, spec });
    }

    fn cancel_flows_of(&mut self, owner: ActorId) {
        let _ = self.shared.clock_tx.send(ClockCmd::CancelFlows { owner });
    }

    fn rng(&mut self) -> &mut SmallRng {
        &mut self.state.rng
    }

    fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    fn trace_id(&self) -> TraceId {
        self.state.current_trace
    }

    fn set_trace(&mut self, trace: TraceId) {
        self.state.current_trace = trace;
    }

    fn trace_event_as(&mut self, actor: ActorId, trace: TraceId, event: TraceEvent) {
        let t = self.shared.now().as_secs_f64();
        self.state.tracer.record(t, actor.0, trace, event);
    }

    fn span(&mut self, actor: ActorId, kind: SpanKind, wall_s: f64) {
        let t = self.shared.now().as_secs_f64();
        let trace = self.state.current_trace;
        self.state.tracer.span(t, actor.0, trace, kind, wall_s);
    }

    fn flight_dump(&mut self, reason: &'static str) {
        let t = self.shared.now().as_secs_f64();
        self.state.tracer.dump(t, reason);
    }

    fn tracer(&self) -> &Tracer {
        &self.state.tracer
    }
}

/// The clock thread: hashed timer wheel plus the shared flow model, both
/// driven by wall time. Deliveries it owes to full mailboxes are retried on
/// the next tick rather than blocking (a stuck actor must not stall every
/// timer in the runtime).
fn clock_thread<M: KernelMsg + Send + 'static>(
    shared: Arc<Shared<M>>,
    rx: Receiver<ClockCmd<M>>,
) {
    let tick_us = shared.cfg.timer_tick.as_micros().max(100) as u64;
    let mut wheel: TimerWheel<Due<M>> = TimerWheel::new(512, tick_us);
    let disk_bw: Vec<f64> = shared.cfg.machines.iter().map(|m| m.disk_bw_mbps).collect();
    let net_bw: Vec<f64> = shared.cfg.machines.iter().map(|m| m.net_bw_mbps).collect();
    let mut flows = FlowNet::new(disk_bw, net_bw);
    let mut backlog: Vec<(ActorId, Envelope<M>)> = Vec::new();
    let sample_every = shared.cfg.metrics_flush;
    let mut last_sample = Instant::now();

    // Never blocks: an envelope refused by a full mailbox joins the
    // backlog and is retried next tick.
    let deliver = |backlog: &mut Vec<(ActorId, Envelope<M>)>, to: ActorId, env: Envelope<M>| {
        if let Err(env) = shared.deliver(to, env, AtBound::Refuse) {
            shared.metrics.lock().unwrap().count("rt.clock_parked", 1);
            backlog.push((to, env));
        }
    };
    let flow_done = |done: FlowDone| {
        let env = Envelope::Msg {
            from: done.owner,
            msg: M::flow_done(done.tag, done.failed),
            trace: TraceId::NONE,
        };
        (done.owner, env)
    };

    loop {
        let now = shared.now();
        let mut next = now + SimDuration(tick_us);
        if let Some(fc) = flows.next_completion() {
            if fc < next {
                next = fc.max(now);
            }
        }
        let wait = Duration::from_micros((next.0.saturating_sub(now.0)).max(100));
        let mut shutdown = false;
        let mut first = match rx.recv_timeout(wait) {
            Ok(cmd) => Some(cmd),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        // Drain whatever queued up behind the first command.
        while let Some(cmd) = first.take() {
            let now = shared.now();
            match cmd {
                ClockCmd::Shutdown => shutdown = true,
                ClockCmd::Timer { actor, delay, tag } => {
                    wheel.arm(now, delay, Due::Timer { actor, tag })
                }
                ClockCmd::DelayedSend {
                    from,
                    to,
                    msg,
                    delay,
                    trace,
                } => wheel.arm(now, delay, Due::Send { from, to, msg, trace }),
                ClockCmd::StartFlow { owner, spec } => {
                    // A degenerate (zero-size) flow completes immediately.
                    if let Some(done) = flows.start(now, owner, spec) {
                        let (to, env) = flow_done(done);
                        deliver(&mut backlog, to, env);
                    }
                }
                ClockCmd::CancelFlows { owner } => flows.cancel_owned_by(now, owner),
                ClockCmd::FailMachine { m } => {
                    for done in flows.fail_machine(now, m) {
                        let (to, env) = flow_done(done);
                        deliver(&mut backlog, to, env);
                    }
                }
                ClockCmd::SetIoSpeed { m, factor } => flows.set_speed(now, m, factor),
            }
            first = rx.try_recv().ok();
        }
        if shutdown {
            return;
        }

        let now = shared.now();
        // Retry deliveries refused by full mailboxes.
        for (to, env) in std::mem::take(&mut backlog) {
            if let Err(env) = shared.deliver(to, env, AtBound::Refuse) {
                backlog.push((to, env));
            }
        }
        for due in wheel.expire(now) {
            let (to, env) = match due {
                Due::Timer { actor, tag } => (actor, Envelope::Timer { tag }),
                Due::Send {
                    from, to, msg, trace,
                } => (to, Envelope::Msg { from, msg, trace }),
            };
            deliver(&mut backlog, to, env);
        }
        for done in flows.advance(now) {
            let (to, env) = flow_done(done);
            deliver(&mut backlog, to, env);
        }
        // Queue pressure is a time series, not a shutdown summary: sample
        // depths on the flush cadence so a mid-run spike is visible in the
        // windowed series and the cluster view.
        if sample_every > Duration::ZERO && last_sample.elapsed() >= sample_every {
            shared.sample_mailboxes();
            last_sample = Instant::now();
        }
    }
}

/// A running live world. Dropping it without [`LiveRuntime::shutdown`]
/// detaches the threads; call `shutdown` to join them and collect the
/// merged observability streams.
pub struct LiveRuntime<M: KernelMsg + Send + 'static> {
    shared: Arc<Shared<M>>,
    clock: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<WorkerSinks>>,
}

impl<M: KernelMsg + Send + 'static> LiveRuntime<M> {
    /// Boots the runtime: machine table, clock thread, worker pool, no
    /// actors yet.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let (clock_tx, clock_rx) = std::sync::mpsc::channel();
        let machines = cfg
            .machines
            .iter()
            .map(|_| MachineState {
                up: true,
                speed: 1.0,
                launch_ok: true,
                procs: BTreeMap::new(),
            })
            .collect();
        let n_workers = std::thread::available_parallelism().map_or(2, |n| n.get());
        let shared = Arc::new(Shared {
            epoch: Instant::now(),
            cfg,
            slots: RwLock::new(Vec::new()),
            machines: RwLock::new(machines),
            clock_tx,
            ready: RunQueue::new(),
            metrics: Mutex::new(Metrics::new()),
            tracer: Mutex::new(Tracer::default()),
            hub: Mutex::new(None),
            remote_router: RwLock::new(None),
            remote_alive: RwLock::new(None),
            panic: Mutex::new(None),
        });
        let clock = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fuxi-clock".into())
                .spawn(move || clock_thread(shared, clock_rx))
                .expect("spawn clock thread")
        };
        let workers = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fuxi-worker-{i}"))
                    .spawn(move || worker_loop(shared, i, n_workers))
                    .expect("spawn pool worker")
            })
            .collect();
        LiveRuntime {
            shared,
            clock: Some(clock),
            workers,
        }
    }

    /// Wall-clock time since the runtime epoch.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Spawns an actor on the worker pool, optionally placed on a machine.
    pub fn spawn(&self, machine: Option<u32>, actor: Box<dyn Actor<M> + Send>) -> ActorId {
        self.shared.spawn(machine, actor, TraceId::NONE)
    }

    /// Injects a message from outside the world under `trace`. Blocks
    /// while the destination's mailbox is full.
    pub fn send_external_traced(&self, to: ActorId, msg: M, trace: TraceId) {
        self.shared.metrics.lock().unwrap().count("net.sent", 1);
        let from = ActorId::NONE;
        self.shared
            .deliver_blocking(to, Envelope::Msg { from, msg, trace });
    }

    /// Injects an untraced external message.
    pub fn send_external(&self, to: ActorId, msg: M) {
        self.send_external_traced(to, msg, TraceId::NONE);
    }

    /// Delivers a message that arrived from a peer process, preserving the
    /// remote sender's address. The node supervisor's inbound path; blocks
    /// while the destination's mailbox is full.
    pub fn route_in(&self, from: ActorId, to: ActorId, msg: M) {
        self.shared.route_in(from, to, msg);
    }

    /// A detached [`LiveRuntime::route_in`] handle the node supervisor's
    /// reader threads can own without borrowing the runtime.
    pub fn remote_injector(&self) -> Arc<dyn Fn(ActorId, ActorId, M) + Send + Sync> {
        let shared = Arc::clone(&self.shared);
        Arc::new(move |from, to, msg| shared.route_in(from, to, msg))
    }

    /// Terminates one actor: it handles what was queued before the kill,
    /// then is dropped.
    pub fn kill_actor(&self, id: ActorId) {
        self.shared.kill(id);
    }

    /// `true` while `id` is accepting messages.
    pub fn alive(&self, id: ActorId) -> bool {
        self.shared.alive(id)
    }

    /// `true` if machine `m` is up.
    pub fn machine_up(&self, m: u32) -> bool {
        self.shared.machines.read().unwrap()[m as usize].up
    }

    /// Machine `m`'s process table.
    pub fn procs_on(&self, m: u32) -> Vec<(ActorId, Vec<u8>)> {
        self.shared.machines.read().unwrap()[m as usize]
            .procs
            .iter()
            .map(|(&a, meta)| (a, meta.clone()))
            .collect()
    }

    /// Takes machine `m` down: every actor placed on it dies, its process
    /// table clears, and flows touching it fail (the NodeDown fault).
    pub fn kill_machine(&self, m: u32) {
        {
            let mut machines = self.shared.machines.write().unwrap();
            machines[m as usize].up = false;
            machines[m as usize].procs.clear();
        }
        let victims: Vec<ActorId> = {
            let slots = self.shared.slots.read().unwrap();
            slots
                .iter()
                .filter(|c| c.machine == Some(m))
                .map(|c| c.id)
                .collect()
        };
        for id in victims {
            self.shared.kill(id);
        }
        let _ = self.shared.clock_tx.send(ClockCmd::FailMachine { m });
        let t = self.shared.now().as_secs_f64();
        self.shared.metrics.lock().unwrap().count("fault.node_down", 1);
        self.shared.tracer.lock().unwrap().record(
            t,
            u32::MAX,
            TraceId::NONE,
            TraceEvent::NodeDown { machine: m },
        );
    }

    /// Degrades (or restores) machine `m`'s compute and I/O speed by
    /// `factor` — the paper's slow-node fault, live. Running flows are
    /// re-paced from now; new worker startups scale via `machine_speed`.
    pub fn set_io_speed(&self, m: u32, factor: f64) {
        self.shared.machines.write().unwrap()[m as usize].speed = factor;
        let _ = self.shared.clock_tx.send(ClockCmd::SetIoSpeed { m, factor });
    }

    /// Records mailbox pressure into the runtime metrics: current depths
    /// as gauges *and* a windowed time series (the clock thread does this
    /// periodically on `metrics_flush` cadence; this forces one sample
    /// now), plus the global high-water mark.
    pub fn record_mailbox_gauges(&self) {
        self.shared.sample_mailboxes();
    }

    /// Attaches a cluster metrics hub: the clock thread's mailbox sampler
    /// starts feeding the view's `mailbox_depth`/`mailbox_hwm` fields.
    pub fn attach_hub(&self, hub: fuxi_obs::MetricsHub) {
        *self.shared.hub.lock().unwrap() = Some(hub);
    }

    /// First actor id this runtime assigns.
    pub fn actor_base(&self) -> u32 {
        self.shared.cfg.actor_base
    }

    /// Installs the outbound path for messages addressed outside this
    /// runtime's actor-id window (the node supervisor's send queue).
    pub fn set_remote_router(&self, route: RemoteRouter<M>) {
        *self.shared.remote_router.write().unwrap() = Some(route);
    }

    /// Installs the liveness oracle consulted by `ctx.alive` for remote
    /// ids. Without one, remote actors read as dead — which is exactly
    /// what the lock service must see when a peer process is gone.
    pub fn set_remote_alive(&self, alive: RemoteAlive) {
        *self.shared.remote_alive.write().unwrap() = Some(alive);
    }

    /// A clone of the runtime-global metrics as of now. With periodic
    /// per-worker flushes (`metrics_flush`) this is a near-live picture;
    /// only the last sub-interval of each worker is missing.
    pub fn metrics_snapshot(&self) -> Metrics {
        self.shared.metrics.lock().unwrap().clone()
    }

    /// Stops everything: closes every mailbox (queued mail still drains),
    /// stops the clock, joins the pool, and merges the per-worker metrics
    /// and the per-actor tracers into the runtime-global pair. Re-raises
    /// the first handler panic, so a crashed actor cannot vanish into a
    /// clean shutdown.
    pub fn shutdown(mut self) -> (Metrics, Tracer) {
        self.record_mailbox_gauges();
        let cells: Vec<Cell<M>> = self.shared.slots.read().unwrap().clone();
        for cell in &cells {
            if cell.mailbox.close() == Some(true) {
                self.shared.ready.push(Arc::clone(cell));
            }
        }
        let _ = self.shared.clock_tx.send(ClockCmd::Shutdown);
        if let Some(clock) = self.clock.take() {
            let _ = clock.join();
        }
        self.shared.ready.stop();
        let mut sinks = Vec::new();
        for w in self.workers.drain(..) {
            match w.join() {
                Ok(s) => sinks.push(s),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        let mut metrics = std::mem::take(&mut *self.shared.metrics.lock().unwrap());
        let mut tracer = std::mem::take(&mut *self.shared.tracer.lock().unwrap());
        for s in sinks {
            metrics.merge(&s.metrics);
            tracer.absorb(s.retired);
        }
        // Actors spawned while the pool drained were never closed.
        for cell in self.shared.slots.read().unwrap().iter() {
            if let Some(body) = cell.body.lock().unwrap().take() {
                tracer.absorb(body.state.tracer);
            }
        }
        tracer.sort_by_time();
        let panic = self.shared.panic.lock().unwrap().take();
        if let Some(panic) = panic {
            std::panic::resume_unwind(panic);
        }
        (metrics, tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Debug)]
    enum TMsg {
        Ping(u64),
        Pong(u64),
        FlowDone { tag: u64, failed: bool },
    }

    impl KernelMsg for TMsg {
        fn flow_done(tag: u64, failed: bool) -> Self {
            TMsg::FlowDone { tag, failed }
        }
    }

    fn two_machine_cfg() -> RuntimeConfig {
        RuntimeConfig {
            machines: vec![
                MachineConfig {
                    rack: 0,
                    disk_bw_mbps: 100.0,
                    net_bw_mbps: 100.0,
                },
                MachineConfig {
                    rack: 0,
                    disk_bw_mbps: 100.0,
                    net_bw_mbps: 100.0,
                },
            ],
            ..RuntimeConfig::default()
        }
    }

    /// Echoes pings back; counts what it saw into a shared atomic.
    struct Echo {
        seen: Arc<AtomicU64>,
    }
    impl Actor<TMsg> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, from: ActorId, msg: TMsg) {
            if let TMsg::Ping(n) = msg {
                self.seen.fetch_add(1, Ordering::SeqCst);
                ctx.send(from, TMsg::Pong(n));
            }
        }
    }

    /// Sends `n` pings, checks pongs arrive in send order (per-source FIFO).
    struct Pinger {
        peer: ActorId,
        n: u64,
        next_expected: u64,
        ordered: Arc<AtomicU64>,
    }
    impl Actor<TMsg> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            for i in 0..self.n {
                ctx.send(self.peer, TMsg::Ping(i));
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, TMsg>, _from: ActorId, msg: TMsg) {
            if let TMsg::Pong(n) = msg {
                if n == self.next_expected {
                    self.next_expected += 1;
                    self.ordered.store(self.next_expected, Ordering::SeqCst);
                }
            }
        }
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

    #[test]
    fn ping_pong_preserves_per_source_order() {
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(two_machine_cfg());
        let seen = Arc::new(AtomicU64::new(0));
        let ordered = Arc::new(AtomicU64::new(0));
        let echo = rt.spawn(None, Box::new(Echo { seen: seen.clone() }));
        let n = 500;
        rt.spawn(
            None,
            Box::new(Pinger {
                peer: echo,
                n,
                next_expected: 0,
                ordered: ordered.clone(),
            }),
        );
        assert!(
            wait_for(|| ordered.load(Ordering::SeqCst) == n, Duration::from_secs(10)),
            "pongs arrived out of order or not at all: {}",
            ordered.load(Ordering::SeqCst)
        );
        assert_eq!(seen.load(Ordering::SeqCst), n);
        let (metrics, _tracer) = rt.shutdown();
        // Pinger's n pings + echo's n pongs.
        assert!(metrics.counter("net.sent") >= 2 * n);
        assert_eq!(metrics.counter("rt.actors_spawned"), 2);
    }

    /// Timer-driven counter actor.
    struct Ticker {
        fired: Arc<AtomicU64>,
    }
    impl Actor<TMsg> for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            ctx.timer(SimDuration::from_millis(5), 7);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, _: TMsg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TMsg>, tag: u64) {
            assert_eq!(tag, 7);
            if self.fired.fetch_add(1, Ordering::SeqCst) < 4 {
                ctx.timer(SimDuration::from_millis(5), 7);
            }
        }
    }

    #[test]
    fn timers_fire_on_wall_clock() {
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(two_machine_cfg());
        let fired = Arc::new(AtomicU64::new(0));
        rt.spawn(None, Box::new(Ticker { fired: fired.clone() }));
        assert!(
            wait_for(|| fired.load(Ordering::SeqCst) >= 5, Duration::from_secs(10)),
            "only {} timer fires",
            fired.load(Ordering::SeqCst)
        );
        rt.shutdown();
    }

    /// Starts one disk flow and records the completion.
    struct FlowUser {
        done: Arc<AtomicU64>,
    }
    impl Actor<TMsg> for FlowUser {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            ctx.start_flow(FlowSpec {
                kind: fuxi_sim::FlowKind::DiskWrite { machine: 0 },
                size_mb: 0.5,
                tag: 42,
            });
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ActorId, msg: TMsg) {
            if let TMsg::FlowDone { tag, failed } = msg {
                assert_eq!(tag, 42);
                assert!(!failed);
                self.done.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn flows_complete_on_wall_clock() {
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(two_machine_cfg());
        let done = Arc::new(AtomicU64::new(0));
        rt.spawn(Some(0), Box::new(FlowUser { done: done.clone() }));
        // 0.5 MB at 100 MB/s = 5 ms.
        assert!(
            wait_for(|| done.load(Ordering::SeqCst) == 1, Duration::from_secs(10)),
            "flow completion never arrived"
        );
        rt.shutdown();
    }

    #[test]
    fn kill_machine_kills_placed_actors_only() {
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(two_machine_cfg());
        let seen = Arc::new(AtomicU64::new(0));
        let on0 = rt.spawn(Some(0), Box::new(Echo { seen: seen.clone() }));
        let on1 = rt.spawn(Some(1), Box::new(Echo { seen: seen.clone() }));
        let free = rt.spawn(None, Box::new(Echo { seen: seen.clone() }));
        rt.kill_machine(0);
        assert!(wait_for(|| !rt.alive(on0), Duration::from_secs(5)));
        assert!(rt.alive(on1));
        assert!(rt.alive(free));
        assert!(!rt.machine_up(0));
        assert!(rt.machine_up(1));
        let (metrics, tracer) = rt.shutdown();
        assert_eq!(metrics.counter("fault.node_down"), 1);
        assert!(tracer
            .records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::NodeDown { machine: 0 })));
    }

    #[test]
    fn shutdown_merges_thread_metrics() {
        let rt: LiveRuntime<TMsg> = LiveRuntime::new(two_machine_cfg());
        let seen = Arc::new(AtomicU64::new(0));
        let echo = rt.spawn(None, Box::new(Echo { seen: seen.clone() }));
        rt.send_external(echo, TMsg::Ping(1));
        assert!(wait_for(|| seen.load(Ordering::SeqCst) == 1, Duration::from_secs(5)));
        let (metrics, _) = rt.shutdown();
        // External send + echo's pong (to a dead ActorId::NONE).
        assert!(metrics.counter("net.sent") >= 2);
        assert!(metrics.gauge("rt.mailbox_hwm") >= 0.0);
    }
}
