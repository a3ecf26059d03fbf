//! Same-sieve anti-entropy repair.
//!
//! §III-A: *"it is further possible to have nodes responsible to the same
//! key space (discovered by the random walk procedure) check tuple
//! redundancy directly between them and restore redundancy as necessary."*
//!
//! A [`RepairNode`] periodically picks a random peer; if the peer is in the
//! same sieve class, the pair exchanges digests and each pulls the tuples
//! it is missing. Experiment E6 drives this under churn and measures how
//! replica counts recover.

use dd_epidemic::antientropy::{AntiEntropyStore, Digest};
use dd_epidemic::push::RumorId;
use dd_membership::PeerSampler;
use dd_sim::{Ctx, Duration, NodeId, Process, TimerTag};
use rand::Rng;

/// Timer tag for repair rounds.
pub const REPAIR_TIMER: TimerTag = TimerTag(0x4E9A);

/// Repair protocol messages.
#[derive(Debug, Clone)]
pub enum RepairMsg<T> {
    /// "I am class X; here is my digest" — sent to a candidate peer.
    Offer {
        /// Sender's sieve class.
        class: u64,
        /// Sender's digest.
        digest: Digest,
    },
    /// Same-class response: items the offerer was missing, plus the
    /// responder's digest so the offerer can reciprocate.
    Sync {
        /// Responder's digest.
        digest: Digest,
        /// Items missing from the offerer.
        items: Vec<(RumorId, T)>,
    },
    /// Final leg: items the responder was missing.
    Items(Vec<(RumorId, T)>),
}

/// A storage node running same-class repair.
#[derive(Debug, Clone)]
pub struct RepairNode<S, T> {
    /// Peer source (walk-discovered same-class peers in production; any
    /// sampler in tests — mismatching classes simply don't sync).
    pub peers: S,
    /// The node's sieve class.
    pub class: u64,
    /// Stored tuples.
    pub store: AntiEntropyStore<T>,
    period: Duration,
}

impl<S: PeerSampler, T: Clone + std::fmt::Debug> RepairNode<S, T> {
    /// Creates a repair node syncing every `period`.
    #[must_use]
    pub fn new(peers: S, class: u64, period: Duration) -> Self {
        RepairNode { peers, class, store: AntiEntropyStore::new(), period }
    }

    /// Inserts a tuple locally (the dissemination path does this on sieve
    /// acceptance).
    pub fn put(&mut self, id: RumorId, value: T) {
        self.store.insert(id, value);
    }

    /// Whether the node holds tuple `id`.
    #[must_use]
    pub fn has(&self, id: RumorId) -> bool {
        self.store.get(id).is_some()
    }
}

impl<S: PeerSampler + 'static, T: Clone + std::fmt::Debug + 'static> Process for RepairNode<S, T> {
    type Msg = RepairMsg<T>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let jitter = ctx.rng().gen_range(0..self.period.0.max(1));
        ctx.set_timer(Duration(jitter), REPAIR_TIMER);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        match msg {
            RepairMsg::Offer { class, digest } => {
                if class != self.class {
                    ctx.metrics().incr("repair.class_mismatch");
                    return;
                }
                let items = self.store.items_missing_from(&digest);
                ctx.metrics().incr("repair.syncs");
                ctx.send(from, RepairMsg::Sync { digest: self.store.digest(), items });
            }
            RepairMsg::Sync { digest, items } => {
                let recovered = self.store.apply(items);
                ctx.metrics().add("repair.recovered", recovered as u64);
                let reciprocal = self.store.items_missing_from(&digest);
                if !reciprocal.is_empty() {
                    ctx.send(from, RepairMsg::Items(reciprocal));
                }
            }
            RepairMsg::Items(items) => {
                let recovered = self.store.apply(items);
                ctx.metrics().add("repair.recovered", recovered as u64);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, tag: TimerTag) {
        if tag != REPAIR_TIMER {
            return;
        }
        if let Some(peer) = self.peers.sample_one(ctx.rng()) {
            ctx.send(peer, RepairMsg::Offer { class: self.class, digest: self.store.digest() });
        }
        ctx.set_timer(self.period, REPAIR_TIMER);
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        ctx.set_timer(self.period, REPAIR_TIMER);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_membership::MembershipOracle;
    use dd_sim::{Sim, SimConfig, Time};

    type Node = RepairNode<MembershipOracle, u64>;

    fn build(n: u64, classes: u64, period: u64, seed: u64) -> Sim<Node> {
        let mut sim: Sim<Node> = Sim::new(SimConfig::default().seed(seed));
        for i in 0..n {
            let node = RepairNode::new(
                MembershipOracle::dense(NodeId(i), n),
                i % classes,
                Duration(period),
            );
            sim.add_node(NodeId(i), node);
        }
        sim
    }

    #[test]
    fn same_class_nodes_converge_to_identical_stores() {
        let mut sim = build(8, 2, 100, 1);
        // Seed distinct tuples on distinct class-0 nodes (ids 0,2,4,6).
        sim.node_mut(NodeId(0)).unwrap().put(RumorId(1), 10);
        sim.node_mut(NodeId(2)).unwrap().put(RumorId(2), 20);
        sim.node_mut(NodeId(4)).unwrap().put(RumorId(3), 30);
        sim.run_until(Time(40 * 100));
        for i in [0u64, 2, 4, 6] {
            let node = sim.node(NodeId(i)).unwrap();
            for id in [1u64, 2, 3] {
                assert!(node.has(RumorId(id)), "node {i} missing tuple {id}");
            }
        }
        // Class-1 nodes must not have absorbed class-0 tuples.
        for i in [1u64, 3, 5, 7] {
            let node = sim.node(NodeId(i)).unwrap();
            assert_eq!(node.store.len(), 0, "class mismatch leaked to node {i}");
        }
        assert!(sim.metrics().counter("repair.class_mismatch") > 0);
    }

    #[test]
    fn repair_restores_replicas_after_crash_recovery() {
        let mut sim = build(6, 1, 100, 2);
        for i in 0..6 {
            sim.node_mut(NodeId(i)).unwrap().put(RumorId(7), 77);
        }
        // Node 5 loses its store (permanent disk loss simulated by
        // replacing its state), then rejoins empty.
        sim.node_mut(NodeId(5)).unwrap().store = AntiEntropyStore::new();
        assert!(!sim.node(NodeId(5)).unwrap().has(RumorId(7)));
        sim.run_until(Time(20 * 100));
        assert!(sim.node(NodeId(5)).unwrap().has(RumorId(7)), "replica restored");
        assert!(sim.metrics().counter("repair.recovered") >= 1);
    }

    #[test]
    fn bidirectional_sync_exchanges_both_ways() {
        let mut sim = build(2, 1, 100, 3);
        sim.node_mut(NodeId(0)).unwrap().put(RumorId(1), 1);
        sim.node_mut(NodeId(1)).unwrap().put(RumorId(2), 2);
        sim.run_until(Time(10 * 100));
        for i in 0..2 {
            let node = sim.node(NodeId(i)).unwrap();
            assert!(node.has(RumorId(1)) && node.has(RumorId(2)), "node {i} incomplete");
        }
    }

    #[test]
    fn downtime_pauses_but_does_not_break_repair() {
        let mut sim = build(4, 1, 100, 4);
        sim.node_mut(NodeId(0)).unwrap().put(RumorId(9), 9);
        sim.schedule_down(Time(50), NodeId(3));
        sim.schedule_up(Time(2_000), NodeId(3));
        sim.run_until(Time(6_000));
        assert!(sim.node(NodeId(3)).unwrap().has(RumorId(9)), "recovered node caught up");
    }
}
