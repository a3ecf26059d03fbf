//! The discrete-event engine: nodes, events, and the run loop.

use crate::metrics::Metrics;
use crate::net::{LatencyModel, NetConfig};
use crate::rng::stream_rng;
use crate::time::{Duration, Time};
use crate::trace::Tracer;
use crate::types::{NodeId, TimerTag};
use rand::rngs::SmallRng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Protocol logic hosted on one simulated node.
///
/// All methods receive a [`Ctx`] through which the process sends messages,
/// arms timers, draws randomness and records metrics. Only `on_message` is
/// mandatory; the rest default to no-ops.
pub trait Process: Sized {
    /// Message type exchanged between nodes running this process.
    type Msg: Clone + fmt::Debug;

    /// Called once when the node is added to the simulation (or the
    /// simulation starts). Typical use: arm the first periodic timer.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called for every delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a previously armed timer fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, tag: TimerTag) {
        let _ = (ctx, tag);
    }

    /// Called when the node goes down (transient failure). State is
    /// retained — the paper's churn model is dominated by reboots
    /// (§III-A), after which on-disk data is still present.
    fn on_down(&mut self) {}

    /// Called when the node comes back up after a transient failure.
    /// Pending timers armed before the crash were discarded; re-arm here.
    fn on_up(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }
}

/// A periodic read-only observer of the running simulation — the hook the
/// telemetry plane (`dd-obs`) installs with [`Sim::set_sampler`].
///
/// The engine polls the sampler once per processed event: whenever virtual
/// time has reached the next sampling deadline, [`Sampler::sample`] runs
/// against an immutable view of the simulation and the deadline advances
/// by [`Sampler::period`] ticks. Sampling is passive — the sampler cannot
/// send, schedule, or mutate node state, and the engine's RNGs and queue
/// are untouched — so an instrumented run replays byte-identically, and
/// when no sampler is installed the poll costs one branch.
pub trait Sampler<P: Process> {
    /// Virtual ticks between samples (values below 1 are treated as 1).
    fn period(&self) -> u64;

    /// Takes one sample at the current virtual time.
    fn sample(&mut self, sim: &Sim<P>);

    /// Recovers the concrete collector once detached ([`Sim::take_sampler`]).
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

/// Side-effect handle passed to every [`Process`] callback.
pub struct Ctx<'a, M> {
    id: NodeId,
    now: Time,
    rng: &'a mut SmallRng,
    metrics: &'a mut Metrics,
    effects: &'a mut Vec<Effect<M>>,
    tracer: Option<&'a mut (dyn Tracer + 'static)>,
}

impl<M> Ctx<'_, M> {
    /// Id of the node this callback runs on.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sends `msg` to `to`; latency/loss applied by the network model.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Arms a one-shot timer that fires after `delay` with `tag`.
    /// Periodic behaviour is obtained by re-arming inside
    /// [`Process::on_timer`]. Timers do not survive a node crash.
    pub fn set_timer(&mut self, delay: Duration, tag: TimerTag) {
        self.effects.push(Effect::Timer { delay, tag });
    }

    /// Node-local deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Shared metrics sink.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// The installed span sink, when the run is traced ([`Sim::set_tracer`]);
    /// `None` otherwise — traced code paths guard on this so tracing costs
    /// one branch when off.
    pub fn tracer(&mut self) -> Option<&mut (dyn Tracer + 'static)> {
        self.tracer.as_deref_mut()
    }
}

enum Effect<M> {
    Send { to: NodeId, msg: M },
    Timer { delay: Duration, tag: TimerTag },
}

/// A scheduled mutation of the live network model — the engine hook behind
/// environment timelines. Experiments queue latency shifts, loss spikes
/// and partition/heal events up front with [`Sim::schedule_net`]; the
/// engine applies each at its virtual time, in deterministic event order,
/// so the run replays identically from the seed.
#[derive(Debug, Clone, PartialEq)]
pub enum NetChange {
    /// Replace the latency model.
    Latency(LatencyModel),
    /// Set the independent message-loss probability.
    DropProb(f64),
    /// Assign a node to a partition colour (0 rejoins the main component).
    Partition(NodeId, u32),
    /// Clear every partition assignment.
    Heal,
}

enum Event<M> {
    Start(NodeId),
    Deliver { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, tag: TimerTag, epoch: u64 },
    Down(NodeId),
    Up(NodeId),
    Net(NetChange),
}

struct Scheduled<M> {
    at: Time,
    seq: u64,
    event: Event<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    // Reversed so BinaryHeap pops the earliest event first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One entry of the node table, at index `NodeId.0`.
struct Slot<P> {
    /// The node hosted under this id: `None` until it is added and after
    /// it is removed. Boxed, so growing the table moves 16-byte entries
    /// rather than whole processes and the heap stays proportional to the
    /// population (no doubled process array in flight at a regrowth).
    node: Option<Box<Node<P>>>,
    /// Incremented on every crash and every removal; timers armed in an
    /// older epoch are discarded on delivery, modelling in-memory timer
    /// loss at reboot. It outlives [`Sim::remove`], so a node re-added
    /// under the id starts in a fresh epoch.
    epoch: u64,
}

struct Node<P> {
    proc: P,
    rng: SmallRng,
    alive: bool,
}

/// How far past the node table [`Sim::add_node`] accepts an id: more than
/// twice the table's length plus this is taken for a stray id, not a
/// population, and panics rather than allocating the gap.
const SPARSE_SLACK: usize = 1024;

/// Table index of `id`; an id beyond `usize` maps past every table.
fn index(id: NodeId) -> usize {
    usize::try_from(id.0).unwrap_or(usize::MAX)
}

/// Simulation-wide configuration.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Master seed; all node RNGs and network decisions derive from it.
    pub seed: u64,
    /// Network model.
    pub net: NetConfig,
    /// Initial capacity of the event queue. Large populations schedule
    /// thousands of events per tick; pre-sizing the heap from a
    /// population-derived estimate avoids repeated regrowth during the
    /// opening dissemination burst.
    pub queue_capacity: usize,
}

impl SimConfig {
    /// Sets the master seed (builder style).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the network model (builder style).
    #[must_use]
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Pre-sizes the event queue (builder style).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }
}

/// The discrete-event simulator.
///
/// Generic over a single [`Process`] type `P`; heterogeneous systems (e.g.
/// DataDroplets' two layers) compose their behaviours into one enum-driven
/// process type.
///
/// Node ids index a dense table: `NodeId(i)` lives at entry `i`, so a
/// delivered message finds its node without a search. Populations are
/// expected to use the ids `0..n` (an id far past the table panics in
/// [`Sim::add_node`]); iteration is in id order.
///
/// Each id keeps a crash epoch across [`Sim::remove`]: a node later added
/// under a removed id starts in a fresh epoch, so timers its predecessor
/// armed are discarded instead of firing on the new process. Messages
/// still in flight to the id are delivered to whoever holds it then —
/// they are addressed to the id, not to an incarnation.
pub struct Sim<P: Process> {
    nodes: Vec<Slot<P>>,
    /// Occupied entries of `nodes`.
    len: usize,
    queue: BinaryHeap<Scheduled<P::Msg>>,
    now: Time,
    seq: u64,
    seed: u64,
    /// Network model; mutable so experiments can partition/heal mid-run.
    pub net: NetConfig,
    metrics: Metrics,
    net_rng: SmallRng,
    effects: Vec<Effect<P::Msg>>,
    /// Bumped on every actual liveness transition (down, up, removal).
    /// [`Sim::is_alive`] answers can only change when this does — the
    /// companion of [`NetConfig::topology_epoch`] for sweep gating.
    liveness_epoch: u64,
    /// Span sink handed to every callback while a traced run is active.
    tracer: Option<Box<dyn Tracer>>,
    /// Telemetry sampler polled by the run loop while instrumentation is
    /// active, plus the virtual time the next sample falls due.
    sampler: Option<Box<dyn Sampler<P>>>,
    next_sample: Time,
}

impl<P: Process> Sim<P> {
    /// Creates an empty simulation.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        Sim {
            nodes: Vec::new(),
            len: 0,
            queue: BinaryHeap::with_capacity(config.queue_capacity),
            now: Time::ZERO,
            seq: 0,
            seed: config.seed,
            net: config.net,
            metrics: Metrics::new(),
            net_rng: stream_rng(config.seed, u64::MAX),
            effects: Vec::new(),
            liveness_epoch: 0,
            tracer: None,
            sampler: None,
            next_sample: Time::ZERO,
        }
    }

    /// Adds a node and schedules its [`Process::on_start`] at the current
    /// time. Returns `false` (and ignores the call) if the id exists.
    ///
    /// # Panics
    /// If `id` lies far past the node table — beyond twice its length
    /// plus 1024 — since ids index a dense table and the gap would have
    /// to be allocated.
    pub fn add_node(&mut self, id: NodeId, proc: P) -> bool {
        let i = index(id);
        let table = self.nodes.len();
        assert!(
            i <= 2 * table + SPARSE_SLACK,
            "node id {} lies far past the node table ({table} entries): ids index a dense \
             table, so populations use ids 0..n",
            id.0
        );
        if i >= table {
            self.nodes.resize_with(i + 1, || Slot { node: None, epoch: 0 });
        }
        let slot = &mut self.nodes[i];
        if slot.node.is_some() {
            return false;
        }
        slot.node = Some(Box::new(Node { proc, rng: stream_rng(self.seed, id.0), alive: true }));
        self.len += 1;
        self.push(self.now, Event::Start(id));
        true
    }

    fn hosted(&self, id: NodeId) -> Option<&Node<P>> {
        self.nodes.get(index(id))?.node.as_deref()
    }

    fn hosted_mut(&mut self, id: NodeId) -> Option<&mut Node<P>> {
        self.nodes.get_mut(index(id))?.node.as_deref_mut()
    }

    /// Occupied table entries with their ids, in id order.
    fn hosted_iter(&self) -> impl Iterator<Item = (NodeId, &Node<P>)> + '_ {
        self.nodes.iter().zip(0..).filter_map(|(s, i)| Some((NodeId(i), s.node.as_deref()?)))
    }

    /// Number of nodes ever added and not removed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the simulation has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable access to a node's process state.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<&P> {
        self.hosted(id).map(|n| &n.proc)
    }

    /// Mutable access to a node's process state (for harness inspection and
    /// fault injection — protocols themselves must not use this).
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut P> {
        self.hosted_mut(id).map(|n| &mut n.proc)
    }

    /// Whether the node is currently up.
    #[must_use]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.hosted(id).is_some_and(|n| n.alive)
    }

    /// All node ids, in order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.hosted_iter().map(|(id, _)| id)
    }

    /// Ids of nodes currently up, in order.
    pub fn alive_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.hosted_iter().filter(|(_, n)| n.alive).map(|(id, _)| id)
    }

    /// Number of nodes currently up.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.hosted_iter().filter(|(_, n)| n.alive).count()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Shared metrics sink.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics sink (harness use).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Installs a span sink: every subsequent callback sees it through
    /// [`Ctx::tracer`] until [`Sim::take_tracer`] removes it. Replaces any
    /// sink already installed.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Removes and returns the installed span sink (downcast it via
    /// [`Tracer::into_any`] to recover the concrete recorder).
    pub fn take_tracer(&mut self) -> Option<Box<dyn Tracer>> {
        self.tracer.take()
    }

    /// The installed span sink, if any (harness-side span bookkeeping —
    /// e.g. opening an operation's root span at injection time).
    pub fn tracer_mut(&mut self) -> Option<&mut (dyn Tracer + 'static)> {
        self.tracer.as_deref_mut()
    }

    /// Whether a span sink is currently installed.
    #[must_use]
    pub fn tracer_installed(&self) -> bool {
        self.tracer.is_some()
    }

    /// Installs a telemetry sampler: the run loop polls it as virtual time
    /// advances, taking one sample every [`Sampler::period`] ticks starting
    /// from the current time. Replaces any sampler already installed.
    pub fn set_sampler(&mut self, sampler: Box<dyn Sampler<P>>) {
        self.next_sample = self.now;
        self.sampler = Some(sampler);
    }

    /// Removes and returns the installed sampler (downcast it via
    /// [`Sampler::into_any`] to recover the concrete collector).
    pub fn take_sampler(&mut self) -> Option<Box<dyn Sampler<P>>> {
        self.sampler.take()
    }

    /// Whether a telemetry sampler is currently installed.
    #[must_use]
    pub fn sampler_installed(&self) -> bool {
        self.sampler.is_some()
    }

    /// Depth of the event queue (scheduled deliveries, timers and
    /// environment events) — the engine-level backlog gauge.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The payloads of every message currently in flight (scheduled for
    /// delivery but not yet delivered), in no particular order.
    pub fn in_flight_msgs(&self) -> impl Iterator<Item = &P::Msg> + '_ {
        self.queue.iter().filter_map(|s| match &s.event {
            Event::Deliver { msg, .. } => Some(msg),
            _ => None,
        })
    }

    /// Polls the installed sampler, taking a sample when one is due. The
    /// sampler is detached while it runs (the field is `None`), so it gets
    /// a clean immutable view of the simulation.
    fn poll_sampler(&mut self) {
        if self.sampler.is_none() || self.now < self.next_sample {
            return;
        }
        let Some(mut s) = self.sampler.take() else { return };
        s.sample(self);
        self.next_sample = self.now + Duration(s.period().max(1));
        self.sampler = Some(s);
    }

    /// Takes the node down *now* (transient failure: state kept, timers and
    /// in-flight messages to it lost).
    pub fn kill(&mut self, id: NodeId) {
        self.push(self.now, Event::Down(id));
    }

    /// Brings a transiently failed node back up *now*.
    pub fn revive(&mut self, id: NodeId) {
        self.push(self.now, Event::Up(id));
    }

    /// Permanently removes the node and its state (disk loss). Its pending
    /// timers die with it, even if another node is later added under `id`.
    pub fn remove(&mut self, id: NodeId) -> Option<P> {
        let slot = self.nodes.get_mut(index(id))?;
        let node = slot.node.take()?;
        slot.epoch += 1;
        self.len -= 1;
        self.liveness_epoch += 1;
        Some(node.proc)
    }

    /// Monotonic counter of liveness transitions (a node actually going
    /// down, coming up, or being removed). [`Sim::is_alive`] answers are
    /// stable while this is unchanged, so whole-population sweeps can be
    /// skipped between transitions.
    #[must_use]
    pub fn liveness_epoch(&self) -> u64 {
        self.liveness_epoch
    }

    /// Schedules a transient failure at absolute time `at`.
    pub fn schedule_down(&mut self, at: Time, id: NodeId) {
        self.push(at.max(self.now), Event::Down(id));
    }

    /// Schedules a recovery at absolute time `at`.
    pub fn schedule_up(&mut self, at: Time, id: NodeId) {
        self.push(at.max(self.now), Event::Up(id));
    }

    /// Schedules a network-model mutation at absolute time `at` (clamped
    /// to now). Messages routed before `at` see the old model; messages
    /// routed after see the new one — the environment timeline of a
    /// scenario is just a list of these.
    ///
    /// # Panics
    /// [`NetChange::DropProb`] panics at apply time if the probability is
    /// outside `0.0..=1.0`.
    pub fn schedule_net(&mut self, at: Time, change: NetChange) {
        self.push(at.max(self.now), Event::Net(change));
    }

    /// Injects a message from outside the simulated population (e.g. a
    /// client). Delivered with normal network latency; `from` may be any id,
    /// including one not in the simulation.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        self.route_send(from, to, msg);
    }

    /// Runs until the event queue is empty. Suitable for terminating
    /// protocols (no periodic timers); otherwise use [`Sim::run_until`].
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until virtual time reaches `deadline` (events at exactly
    /// `deadline` are processed) or the queue empties.
    pub fn run_until(&mut self, deadline: Time) {
        while let Some(head) = self.queue.peek() {
            if head.at > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
        self.poll_sampler();
    }

    /// Runs for `d` more ticks of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Processes the single earliest event. Returns `false` when the queue
    /// is empty.
    pub fn step(&mut self) -> bool {
        let Some(Scheduled { at, event, .. }) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.poll_sampler();
        match event {
            Event::Start(id) => self.dispatch(id, Dispatch::Start),
            Event::Deliver { to, from, msg } => {
                if self.is_alive(to) {
                    self.metrics.incr("net.delivered");
                    self.dispatch(to, Dispatch::Msg(from, msg));
                } else {
                    self.metrics.incr("net.dropped_down");
                }
            }
            Event::Timer { node, tag, epoch } => {
                if self.nodes.get(index(node)).is_some_and(|s| s.epoch == epoch) {
                    self.dispatch(node, Dispatch::Timer(tag));
                }
            }
            Event::Down(id) => {
                if let Some(slot) = self.nodes.get_mut(index(id)) {
                    if let Some(node) = slot.node.as_deref_mut().filter(|n| n.alive) {
                        node.alive = false;
                        slot.epoch += 1;
                        node.proc.on_down();
                        self.liveness_epoch += 1;
                        self.metrics.incr("churn.down");
                    }
                }
            }
            Event::Up(id) => {
                if let Some(node) = self.hosted_mut(id).filter(|n| !n.alive) {
                    node.alive = true;
                    self.liveness_epoch += 1;
                    self.metrics.incr("churn.up");
                    self.dispatch(id, Dispatch::Up);
                }
            }
            Event::Net(change) => {
                match change {
                    NetChange::Latency(latency) => self.net.latency = latency,
                    NetChange::DropProb(p) => {
                        assert!((0.0..=1.0).contains(&p), "drop probability must be in [0,1]");
                        self.net.drop_prob = p;
                    }
                    NetChange::Partition(id, colour) => self.net.set_partition(id, colour),
                    NetChange::Heal => self.net.heal_partitions(),
                }
                self.metrics.incr("net.reconfigured");
            }
        }
        true
    }

    /// Runs one callback on `id` if it is hosted and up, then applies the
    /// effects it emitted.
    fn dispatch(&mut self, id: NodeId, kind: Dispatch<P::Msg>) {
        debug_assert!(self.effects.is_empty());
        let Some(slot) = self.nodes.get_mut(index(id)) else { return };
        let epoch = slot.epoch;
        let Some(node) = slot.node.as_deref_mut().filter(|n| n.alive) else { return };
        let mut effects = std::mem::take(&mut self.effects);
        let now = self.now;
        let mut ctx = Ctx {
            id,
            now,
            rng: &mut node.rng,
            metrics: &mut self.metrics,
            effects: &mut effects,
            tracer: self.tracer.as_deref_mut(),
        };
        match kind {
            Dispatch::Start => node.proc.on_start(&mut ctx),
            Dispatch::Msg(from, msg) => node.proc.on_message(&mut ctx, from, msg),
            Dispatch::Timer(tag) => node.proc.on_timer(&mut ctx, tag),
            Dispatch::Up => node.proc.on_up(&mut ctx),
        }
        for eff in effects.drain(..) {
            match eff {
                Effect::Send { to, msg } => self.route_send(id, to, msg),
                Effect::Timer { delay, tag } => {
                    let at = now + delay;
                    self.push(at, Event::Timer { node: id, tag, epoch });
                }
            }
        }
        self.effects = effects;
    }

    fn route_send(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        self.metrics.incr("net.sent");
        self.seq += 1;
        let seq = self.seq;
        match self.net.route(&mut self.net_rng, self.seed, from, to, seq) {
            Some(lat) => {
                let at = self.now + Duration(lat);
                self.push(at, Event::Deliver { to, from, msg });
            }
            None => self.metrics.incr("net.dropped"),
        }
    }

    fn push(&mut self, at: Time, event: Event<P::Msg>) {
        self.seq += 1;
        self.queue.push(Scheduled { at, seq: self.seq, event });
    }
}

enum Dispatch<M> {
    Start,
    Msg(NodeId, M),
    Timer(TimerTag),
    Up,
}

/// Effect captured by [`with_adhoc_ctx`]: what the process asked the host
/// to do. Used by the threaded runtime and by sans-IO adapter tests.
#[derive(Debug, Clone)]
pub enum AdhocEffect<M> {
    /// Send `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// Payload.
        msg: M,
    },
    /// Arm a one-shot timer.
    Timer {
        /// Delay until the timer fires.
        delay: Duration,
        /// Application tag.
        tag: TimerTag,
    },
}

/// Runs `f` with a [`Ctx`] that is not attached to a simulator, returning
/// `f`'s result and the effects the process emitted.
///
/// This lets alternative hosts (the threaded [`crate::runtime`], property
/// tests of protocol adapters) drive [`Process`] implementations with
/// identical semantics to the discrete-event engine.
pub fn with_adhoc_ctx<M, R>(
    id: NodeId,
    now: Time,
    rng: &mut SmallRng,
    metrics: &mut Metrics,
    f: impl FnOnce(&mut Ctx<'_, M>) -> R,
) -> (R, Vec<AdhocEffect<M>>) {
    let mut effects: Vec<Effect<M>> = Vec::new();
    let r = {
        let mut ctx = Ctx { id, now, rng, metrics, effects: &mut effects, tracer: None };
        f(&mut ctx)
    };
    let out = effects
        .into_iter()
        .map(|e| match e {
            Effect::Send { to, msg } => AdhocEffect::Send { to, msg },
            Effect::Timer { delay, tag } => AdhocEffect::Timer { delay, tag },
        })
        .collect();
    (r, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::LatencyModel;
    use rand::Rng;

    /// Flooding process used across the kernel tests: first message (or
    /// start on node 0) floods all ids below `n`.
    struct Flood {
        n: u64,
        infected: bool,
        deliveries: u32,
    }

    impl Flood {
        fn new(n: u64) -> Self {
            Flood { n, infected: false, deliveries: 0 }
        }
    }

    impl Process for Flood {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.id() == NodeId(0) {
                self.infected = true;
                for i in 1..self.n {
                    ctx.send(NodeId(i), ());
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {
            self.infected = true;
            self.deliveries += 1;
        }
    }

    fn flood_sim(n: u64, cfg: SimConfig) -> Sim<Flood> {
        let mut sim = Sim::new(cfg);
        for i in 0..n {
            sim.add_node(NodeId(i), Flood::new(n));
        }
        sim
    }

    #[test]
    fn messages_reach_all_nodes() {
        let mut sim = flood_sim(10, SimConfig::default());
        sim.run();
        for id in 0..10 {
            assert!(sim.node(NodeId(id)).unwrap().infected, "node {id} not infected");
        }
        assert_eq!(sim.metrics().counter("net.sent"), 9);
        assert_eq!(sim.metrics().counter("net.delivered"), 9);
    }

    #[test]
    fn time_advances_by_latency() {
        let cfg = SimConfig::default().net(NetConfig::new().latency(LatencyModel::Constant(7)));
        let mut sim = flood_sim(3, cfg);
        sim.run();
        assert_eq!(sim.now(), Time(7));
    }

    #[test]
    fn dead_nodes_do_not_receive() {
        let mut sim = flood_sim(4, SimConfig::default());
        sim.kill(NodeId(2));
        sim.run();
        assert!(!sim.node(NodeId(2)).unwrap().infected);
        assert_eq!(sim.metrics().counter("net.dropped_down"), 1);
    }

    #[test]
    fn revive_restores_delivery_and_counts_churn() {
        struct Echo;
        impl Process for Echo {
            type Msg = u8;
            fn on_message(&mut self, ctx: &mut Ctx<'_, u8>, from: NodeId, m: u8) {
                if m == 1 {
                    ctx.send(from, 2);
                }
            }
        }
        let mut sim: Sim<Echo> = Sim::new(SimConfig::default());
        sim.add_node(NodeId(0), Echo);
        sim.add_node(NodeId(1), Echo);
        sim.kill(NodeId(1));
        sim.run();
        assert!(!sim.is_alive(NodeId(1)));
        sim.revive(NodeId(1));
        sim.inject(NodeId(0), NodeId(1), 1);
        sim.run();
        assert!(sim.is_alive(NodeId(1)));
        assert_eq!(sim.metrics().counter("churn.down"), 1);
        assert_eq!(sim.metrics().counter("churn.up"), 1);
        assert_eq!(sim.metrics().counter("net.delivered"), 2); // inject + echo
    }

    #[test]
    fn timers_fire_in_order_and_can_rearm() {
        struct Ticker {
            fired: Vec<u64>,
            limit: usize,
        }
        impl Process for Ticker {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(Duration(10), TimerTag(1));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, tag: TimerTag) {
                assert_eq!(tag, TimerTag(1));
                self.fired.push(ctx.now().0);
                if self.fired.len() < self.limit {
                    ctx.set_timer(Duration(10), TimerTag(1));
                }
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(NodeId(0), Ticker { fired: vec![], limit: 3 });
        sim.run();
        assert_eq!(sim.node(NodeId(0)).unwrap().fired, vec![10, 20, 30]);
    }

    #[test]
    fn crash_discards_pending_timers() {
        struct Ticker {
            fired: u32,
        }
        impl Process for Ticker {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(Duration(10), TimerTag(0));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerTag) {
                self.fired += 1;
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(NodeId(0), Ticker { fired: 0 });
        sim.schedule_down(Time(5), NodeId(0));
        sim.schedule_up(Time(6), NodeId(0));
        sim.run_until(Time(100));
        // Timer armed at t0 for t10 was discarded by the crash at t5; node
        // did not re-arm in on_up, so nothing fires.
        assert_eq!(sim.node(NodeId(0)).unwrap().fired, 0);
    }

    #[test]
    fn on_up_can_rearm_timers() {
        struct Ticker {
            fired: u32,
        }
        impl Process for Ticker {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(Duration(10), TimerTag(0));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerTag) {
                self.fired += 1;
            }
            fn on_up(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(Duration(10), TimerTag(0));
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(NodeId(0), Ticker { fired: 0 });
        sim.schedule_down(Time(5), NodeId(0));
        sim.schedule_up(Time(6), NodeId(0));
        sim.run_until(Time(100));
        assert_eq!(sim.node(NodeId(0)).unwrap().fired, 1);
    }

    #[test]
    fn a_removed_nodes_timers_do_not_fire_on_a_node_readded_under_its_id() {
        struct Arming {
            tag: u32,
            fired: Vec<u32>,
        }
        impl Process for Arming {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(Duration(10), TimerTag(self.tag));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, tag: TimerTag) {
                self.fired.push(tag.0);
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(NodeId(0), Arming { tag: 7, fired: vec![] });
        sim.run_until(Time(1));
        assert!(sim.remove(NodeId(0)).is_some());
        assert!(sim.add_node(NodeId(0), Arming { tag: 8, fired: vec![] }));
        sim.run();
        assert_eq!(sim.node(NodeId(0)).unwrap().fired, vec![8], "tag 7 died with its node");
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = flood_sim(2, SimConfig::default());
        sim.run_until(Time(0));
        // start events at t0 processed, delivery at t>=1 pending
        assert!(!sim.node(NodeId(1)).unwrap().infected);
        sim.run_until(Time(100));
        assert!(sim.node(NodeId(1)).unwrap().infected);
        assert_eq!(sim.now(), Time(100));
    }

    #[test]
    fn duplicate_add_is_rejected() {
        let mut sim = flood_sim(1, SimConfig::default());
        assert!(!sim.add_node(NodeId(0), Flood::new(1)));
        assert_eq!(sim.len(), 1);
    }

    #[test]
    fn remove_is_permanent() {
        let mut sim = flood_sim(3, SimConfig::default());
        let removed = sim.remove(NodeId(1));
        assert!(removed.is_some());
        assert!(sim.node(NodeId(1)).is_none());
        assert!(!sim.is_alive(NodeId(1)));
        sim.run();
        assert_eq!(sim.len(), 2);
    }

    #[test]
    fn same_seed_replays_identically() {
        struct Chatter {
            sum: u64,
        }
        impl Process for Chatter {
            type Msg = u64;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                let v: u64 = ctx.rng().gen_range(0..100);
                let peer = NodeId(ctx.rng().gen_range(0..8));
                ctx.send(peer, v);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, m: u64) {
                self.sum = self.sum.wrapping_mul(31).wrapping_add(m);
            }
        }
        let run = |seed| {
            let cfg = SimConfig::default().seed(seed).net(
                NetConfig::new().latency(LatencyModel::Uniform { min: 1, max: 9 }).drop_prob(0.1),
            );
            let mut sim: Sim<Chatter> = Sim::new(cfg);
            for i in 0..8 {
                sim.add_node(NodeId(i), Chatter { sum: 0 });
            }
            sim.run();
            (0..8).map(|i| sim.node(NodeId(i)).unwrap().sum).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn alive_iteration_reflects_kills() {
        let mut sim = flood_sim(5, SimConfig::default());
        sim.kill(NodeId(3));
        sim.run();
        let alive: Vec<NodeId> = sim.alive_ids().collect();
        assert_eq!(alive, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(4)]);
        assert_eq!(sim.alive_count(), 4);
    }

    #[test]
    fn scheduled_net_changes_apply_at_their_time() {
        struct Pinger;
        impl Process for Pinger {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
        }
        let cfg = SimConfig::default().net(NetConfig::new().latency(LatencyModel::Constant(1)));
        let mut sim: Sim<Pinger> = Sim::new(cfg);
        sim.add_node(NodeId(0), Pinger);
        sim.add_node(NodeId(1), Pinger);
        // Partition node 1 away at t=10, heal at t=30, stretch latency at 40.
        sim.schedule_net(Time(10), NetChange::Partition(NodeId(1), 1));
        sim.schedule_net(Time(30), NetChange::Heal);
        sim.schedule_net(Time(40), NetChange::Latency(LatencyModel::Constant(9)));
        sim.run_until(Time(5));
        sim.inject(NodeId(0), NodeId(1), ());
        sim.run_until(Time(20));
        assert_eq!(sim.metrics().counter("net.delivered"), 1, "pre-partition send lands");
        sim.inject(NodeId(0), NodeId(1), ());
        sim.run_until(Time(29));
        assert_eq!(sim.metrics().counter("net.dropped"), 1, "partitioned send dropped");
        sim.run_until(Time(35));
        sim.inject(NodeId(0), NodeId(1), ());
        sim.run_until(Time(39));
        assert_eq!(sim.metrics().counter("net.delivered"), 2, "healed send lands");
        sim.run_until(Time(45));
        sim.inject(NodeId(0), NodeId(1), ());
        sim.run();
        assert_eq!(sim.now(), Time(45 + 9), "new latency model governs the last send");
        assert_eq!(sim.metrics().counter("net.reconfigured"), 3);
    }

    #[test]
    fn scheduled_drop_prob_spike_loses_messages_then_clears() {
        let mut sim: Sim<Flood> = Sim::new(SimConfig::default());
        // Scheduled before the nodes join so the spike precedes the flood.
        sim.schedule_net(Time(0), NetChange::DropProb(1.0));
        sim.schedule_net(Time(50), NetChange::DropProb(0.0));
        for i in 0..2 {
            sim.add_node(NodeId(i), Flood::new(2));
        }
        sim.run_until(Time(40));
        assert_eq!(sim.metrics().counter("net.dropped"), 1, "total loss window");
        sim.run_until(Time(60));
        sim.inject(NodeId(0), NodeId(1), ());
        sim.run();
        assert!(sim.node(NodeId(1)).unwrap().infected, "after the spike, traffic flows");
    }

    #[test]
    fn partitioned_nodes_cannot_communicate_until_healed() {
        let mut sim = flood_sim(2, SimConfig::default());
        sim.net.set_partition(NodeId(1), 1);
        sim.run();
        assert!(!sim.node(NodeId(1)).unwrap().infected);
        assert_eq!(sim.metrics().counter("net.dropped"), 1);
        sim.net.heal_partitions();
        sim.inject(NodeId(0), NodeId(1), ());
        sim.run();
        assert!(sim.node(NodeId(1)).unwrap().infected);
    }
}
