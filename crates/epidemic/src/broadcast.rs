//! Composed epidemic broadcast node for `dd-sim`.
//!
//! Binds [`PushState`] (eager push) and
//! [`AntiEntropyStore`] (periodic
//! digest pull) to a peer set. This is the process the dissemination
//! experiments (E1, E2) run unmodified at 1 000–50 000 nodes.

use crate::antientropy::{AntiEntropyStore, Digest};
use crate::push::{PushConfig, PushState, Rumor, RumorId};
use dd_membership::PeerSampler;
use dd_sim::{Ctx, Duration, NodeId, Process, TimerTag};
use rand::Rng;
use std::fmt;

/// Timer tag for anti-entropy exchanges.
pub const ANTI_ENTROPY_TIMER: TimerTag = TimerTag(0xAE0);

/// Broadcast node configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct BroadcastConfig {
    /// Eager-push parameters.
    pub push: PushConfig,
    /// Ticks between anti-entropy exchanges; `None` disables pull repair.
    pub anti_entropy_period: Option<Duration>,
}

/// Messages of the composed broadcast protocol.
#[derive(Debug, Clone)]
pub enum BroadcastMsg<T> {
    /// Eagerly pushed rumor.
    Rumor(Rumor<T>),
    /// Anti-entropy: "here is what I have".
    DigestReq(Digest),
    /// Anti-entropy: "here is what you were missing".
    Pull(Vec<(RumorId, T)>),
}

/// An epidemic broadcast participant.
///
/// `S` supplies gossip partners (full membership oracle in closed-world
/// experiments, a Cyclon view in open-world ones); `T` is the payload.
pub struct BroadcastNode<S, T> {
    /// Peer source (public: composite processes refresh it from e.g. a
    /// Cyclon view they also maintain).
    pub peers: S,
    push: PushState,
    store: AntiEntropyStore<T>,
    config: BroadcastConfig,
}

impl<S: fmt::Debug, T: fmt::Debug> fmt::Debug for BroadcastNode<S, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BroadcastNode")
            .field("peers", &self.peers)
            .field("seen", &self.push.seen_count())
            .field("stored", &self.store.len())
            .finish()
    }
}

impl<S: PeerSampler, T: Clone + fmt::Debug> BroadcastNode<S, T> {
    /// Creates a node.
    #[must_use]
    pub fn new(peers: S, config: BroadcastConfig) -> Self {
        BroadcastNode {
            peers,
            push: PushState::new(config.push),
            store: AntiEntropyStore::new(),
            config,
        }
    }

    /// Whether this node has received rumor `id`.
    #[must_use]
    pub fn has(&self, id: RumorId) -> bool {
        self.store.get(id).is_some()
    }

    /// Payload of rumor `id`, if held.
    #[must_use]
    pub fn payload(&self, id: RumorId) -> Option<&T> {
        self.store.get(id)
    }

    /// Number of distinct rumors delivered to this node.
    #[must_use]
    pub fn delivered(&self) -> usize {
        self.store.len()
    }

    /// A candidate pool a bit wider than the fanout: sampling instead of
    /// materialising the full peer list keeps memory O(fanout) per event,
    /// which is what lets dissemination run at the paper's 50 000-node
    /// scale.
    fn pool(&self, ctx: &mut Ctx<'_, BroadcastMsg<T>>) -> Vec<NodeId> {
        let want = self.config.push.fanout as usize * 2 + 4;
        self.peers.sample_peers(ctx.rng(), want)
    }

    /// Starts disseminating `payload` from this node (the write path of the
    /// persistent layer calls this on the entry node).
    pub fn originate(&mut self, ctx: &mut Ctx<'_, BroadcastMsg<T>>, id: RumorId, payload: T) {
        self.store.insert(id, payload.clone());
        let peer_list = self.pool(ctx);
        let self_id = ctx.id();
        let targets = self.push.originate(ctx.rng(), self_id, &peer_list, id);
        ctx.metrics().incr("bcast.originated");
        for t in targets {
            ctx.metrics().incr("bcast.relays");
            ctx.send(t, BroadcastMsg::Rumor(Rumor { id, hops: 1, payload: payload.clone() }));
        }
    }
}

impl<S: PeerSampler + 'static, T: Clone + fmt::Debug + 'static> Process for BroadcastNode<S, T> {
    type Msg = BroadcastMsg<T>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        if let Some(period) = self.config.anti_entropy_period {
            let jitter = ctx.rng().gen_range(0..period.0.max(1));
            ctx.set_timer(Duration(jitter), ANTI_ENTROPY_TIMER);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        match msg {
            BroadcastMsg::Rumor(rumor) => {
                let peer_list = self.pool(ctx);
                let self_id = ctx.id();
                let (first, targets) =
                    self.push.on_rumor(ctx.rng(), self_id, &peer_list, rumor.id, rumor.hops);
                if first {
                    ctx.metrics().incr("bcast.delivered_first");
                    self.store.insert(rumor.id, rumor.payload.clone());
                } else {
                    ctx.metrics().incr("bcast.duplicates");
                }
                for t in targets {
                    ctx.metrics().incr("bcast.relays");
                    ctx.send(
                        t,
                        BroadcastMsg::Rumor(Rumor {
                            id: rumor.id,
                            hops: rumor.hops + 1,
                            payload: rumor.payload.clone(),
                        }),
                    );
                }
            }
            BroadcastMsg::DigestReq(their_digest) => {
                let missing = self.store.items_missing_from(&their_digest);
                if !missing.is_empty() {
                    ctx.metrics().add("ae.pushed", missing.len() as u64);
                    ctx.send(from, BroadcastMsg::Pull(missing));
                }
            }
            BroadcastMsg::Pull(batch) => {
                let new = self.store.apply(batch);
                ctx.metrics().add("ae.recovered", new as u64);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, tag: TimerTag) {
        if tag != ANTI_ENTROPY_TIMER {
            return;
        }
        if let Some(peer) = self.peers.sample_one(ctx.rng()) {
            ctx.metrics().incr("ae.exchanges");
            ctx.send(peer, BroadcastMsg::DigestReq(self.store.digest()));
        }
        if let Some(period) = self.config.anti_entropy_period {
            ctx.set_timer(period, ANTI_ENTROPY_TIMER);
        }
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        if let Some(period) = self.config.anti_entropy_period {
            ctx.set_timer(period, ANTI_ENTROPY_TIMER);
        }
    }
}

/// Convenience harness: runs one dissemination over `n` nodes with full
/// membership and returns `(reached, messages_sent)`.
///
/// This is the inner loop of experiments E1 and E2.
#[must_use]
pub fn run_dissemination(
    n: u64,
    config: BroadcastConfig,
    seed: u64,
    settle: Duration,
) -> (usize, u64) {
    use dd_membership::DensePopulation;
    use dd_sim::{Sim, SimConfig};

    let mut sim: Sim<BroadcastNode<DensePopulation, u64>> =
        Sim::new(SimConfig::default().seed(seed));
    for i in 0..n {
        sim.add_node(NodeId(i), BroadcastNode::new(DensePopulation::new(NodeId(i), n), config));
    }
    // Kick off one rumor at node 0 by injecting it as if pushed from outside.
    sim.inject(
        NodeId(0),
        NodeId(0),
        BroadcastMsg::Rumor(Rumor { id: RumorId(1), hops: 0, payload: 42 }),
    );
    sim.run_until(dd_sim::Time::ZERO + settle);
    let reached = sim.ids().filter(|&i| sim.node(i).unwrap().has(RumorId(1))).count();
    (reached, sim.metrics().counter("net.sent"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::required_fanout;
    use crate::push::GossipMode;
    use dd_sim::Duration;

    fn cfg(fanout: u32) -> BroadcastConfig {
        BroadcastConfig {
            push: PushConfig { fanout, mode: GossipMode::InfectAndDie, max_hops: 0 },
            anti_entropy_period: None,
        }
    }

    #[test]
    fn critical_fanout_reaches_everyone() {
        let n = 500;
        let fanout = required_fanout(n, 0.999); // ≈ 13
        let (reached, _) = run_dissemination(n, cfg(fanout), 1, Duration(10_000));
        assert_eq!(reached as u64, n, "atomic infection expected at fanout {fanout}");
    }

    #[test]
    fn subcritical_fanout_reaches_a_fraction() {
        let n = 500;
        let (reached, _) = run_dissemination(n, cfg(2), 2, Duration(10_000));
        let frac = reached as f64 / n as f64;
        // Theory: π(2) ≈ 0.797. Allow generous slack for a single run.
        assert!(
            (0.55..1.0).contains(&frac),
            "fanout 2 should reach a large but partial fraction, got {frac}"
        );
        assert!(reached < n as usize, "fanout 2 should miss someone in most runs");
    }

    #[test]
    fn cost_grows_with_fanout() {
        let n = 300;
        let (_, m3) = run_dissemination(n, cfg(3), 3, Duration(10_000));
        let (_, m12) = run_dissemination(n, cfg(12), 3, Duration(10_000));
        assert!(m12 > 2 * m3, "fanout 12 should cost much more than fanout 3: {m12} vs {m3}");
    }

    #[test]
    fn anti_entropy_completes_partial_dissemination() {
        use dd_membership::MembershipOracle;
        use dd_sim::{Sim, SimConfig, Time};
        let n = 200u64;
        let config = BroadcastConfig {
            push: PushConfig { fanout: 2, mode: GossipMode::InfectAndDie, max_hops: 0 },
            anti_entropy_period: Some(Duration(500)),
        };
        let mut sim: Sim<BroadcastNode<MembershipOracle, u64>> =
            Sim::new(SimConfig::default().seed(5));
        for i in 0..n {
            sim.add_node(
                NodeId(i),
                BroadcastNode::new(MembershipOracle::dense(NodeId(i), n), config),
            );
        }
        sim.inject(
            NodeId(0),
            NodeId(0),
            BroadcastMsg::Rumor(Rumor { id: RumorId(9), hops: 0, payload: 7 }),
        );
        sim.run_until(Time(30_000)); // 60 anti-entropy rounds
        let reached = sim.ids().filter(|&i| sim.node(i).unwrap().has(RumorId(9))).count();
        assert_eq!(reached as u64, n, "anti-entropy must deliver to everyone eventually");
        assert!(sim.metrics().counter("ae.recovered") > 0, "pull repair did real work");
    }

    #[test]
    fn payload_is_preserved_end_to_end() {
        use dd_membership::MembershipOracle;
        use dd_sim::{Sim, SimConfig, Time};
        let n = 50u64;
        let mut sim: Sim<BroadcastNode<MembershipOracle, u64>> =
            Sim::new(SimConfig::default().seed(8));
        for i in 0..n {
            sim.add_node(
                NodeId(i),
                BroadcastNode::new(MembershipOracle::dense(NodeId(i), n), cfg(8)),
            );
        }
        sim.inject(
            NodeId(0),
            NodeId(0),
            BroadcastMsg::Rumor(Rumor { id: RumorId(3), hops: 0, payload: 1234 }),
        );
        sim.run_until(Time(5_000));
        for i in 0..n {
            assert_eq!(sim.node(NodeId(i)).unwrap().payload(RumorId(3)), Some(&1234));
        }
    }

    #[test]
    fn originate_via_ctx_spreads_from_any_node() {
        use dd_membership::MembershipOracle;
        use dd_sim::engine::with_adhoc_ctx;
        use dd_sim::Metrics;
        use rand::SeedableRng;

        let mut node: BroadcastNode<MembershipOracle, &str> =
            BroadcastNode::new(MembershipOracle::dense(NodeId(2), 10), cfg(4));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let mut metrics = Metrics::new();
        let ((), effects) =
            with_adhoc_ctx(NodeId(2), dd_sim::Time::ZERO, &mut rng, &mut metrics, |ctx| {
                node.originate(ctx, RumorId(77), "hello");
            });
        assert!(node.has(RumorId(77)));
        assert_eq!(effects.len(), 4, "fanout sends");
        assert_eq!(metrics.counter("bcast.originated"), 1);
    }
}
