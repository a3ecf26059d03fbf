//! TTL random walks over the overlay.

use dd_membership::PeerSampler;
use dd_sim::{Ctx, NodeId, Process};
use std::collections::HashMap;

/// One observation collected by a walk when visiting a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkSample {
    /// Visited node.
    pub node: NodeId,
    /// The node's sieve class (`dd_sieve::Sieve::class_id`).
    pub sieve_class: u64,
    /// Number of items the node currently stores.
    pub item_count: u64,
}

/// Random-walk messages.
#[derive(Debug, Clone)]
pub enum WalkMsg {
    /// A walk in progress.
    Step {
        /// Walk identifier (unique per origin).
        id: u64,
        /// Remaining hops.
        ttl: u32,
        /// Node that launched the walk (receives the result).
        origin: NodeId,
        /// Samples collected so far.
        samples: Vec<WalkSample>,
    },
    /// A finished walk returning to its origin.
    Done {
        /// Walk identifier.
        id: u64,
        /// All collected samples.
        samples: Vec<WalkSample>,
    },
}

/// A node participating in random walks.
///
/// Each node advertises a `sieve_class` and `item_count` (set by the store
/// layer); walks hop uniformly over `peers` until their TTL expires, then
/// return to the origin, which accumulates results in
/// [`WalkNode::completed`].
#[derive(Debug, Clone)]
pub struct WalkNode<S> {
    /// Peer source for the next hop.
    pub peers: S,
    /// This node's sieve class advertised to walks.
    pub sieve_class: u64,
    /// This node's item count advertised to walks.
    pub item_count: u64,
    /// Completed walks launched by this node: walk id → samples.
    pub completed: HashMap<u64, Vec<WalkSample>>,
    next_walk_id: u64,
}

impl<S: PeerSampler> WalkNode<S> {
    /// Creates a node with the given advertised state.
    #[must_use]
    pub fn new(peers: S, sieve_class: u64, item_count: u64) -> Self {
        WalkNode { peers, sieve_class, item_count, completed: HashMap::new(), next_walk_id: 0 }
    }

    fn sample(&self, id: NodeId) -> WalkSample {
        WalkSample { node: id, sieve_class: self.sieve_class, item_count: self.item_count }
    }

    /// Launches a walk of `ttl` hops; returns its id, or `None` when the
    /// node knows no peers.
    pub fn start_walk(&mut self, ctx: &mut Ctx<'_, WalkMsg>, ttl: u32) -> Option<u64> {
        let peer = self.peers.sample_one(ctx.rng())?;
        let id = self.next_walk_id;
        self.next_walk_id += 1;
        let origin = ctx.id();
        let samples = vec![self.sample(origin)];
        ctx.metrics().incr("walk.started");
        ctx.send(peer, WalkMsg::Step { id, ttl, origin, samples });
        Some(id)
    }

    /// All samples from every completed walk, flattened.
    #[must_use]
    pub fn all_samples(&self) -> Vec<WalkSample> {
        let mut v: Vec<WalkSample> = self.completed.values().flatten().copied().collect();
        v.sort_by_key(|s| s.node);
        v
    }
}

impl<S: PeerSampler + 'static> Process for WalkNode<S> {
    type Msg = WalkMsg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, _from: NodeId, msg: Self::Msg) {
        match msg {
            WalkMsg::Step { id, ttl, origin, mut samples } => {
                samples.push(self.sample(ctx.id()));
                ctx.metrics().incr("walk.hops");
                if ttl <= 1 {
                    ctx.send(origin, WalkMsg::Done { id, samples });
                } else {
                    // Uniform next hop; falls back to returning early if the
                    // node is isolated.
                    match self.peers.sample_one(ctx.rng()) {
                        Some(next) => {
                            ctx.send(next, WalkMsg::Step { id, ttl: ttl - 1, origin, samples });
                        }
                        None => ctx.send(origin, WalkMsg::Done { id, samples }),
                    }
                }
            }
            WalkMsg::Done { id, samples } => {
                ctx.metrics().incr("walk.completed");
                self.completed.insert(id, samples);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_membership::MembershipOracle;
    use dd_sim::{Sim, SimConfig, Time};

    fn build(n: u64, seed: u64) -> Sim<WalkNode<MembershipOracle>> {
        let mut sim = Sim::new(SimConfig::default().seed(seed));
        for i in 0..n {
            let node = WalkNode::new(MembershipOracle::dense(NodeId(i), n), i % 4, i);
            sim.add_node(NodeId(i), node);
        }
        sim
    }

    /// Helper to launch a walk from node 0 once the sim is built.
    fn launch(sim: &mut Sim<WalkNode<MembershipOracle>>, ttl: u32) {
        // Drive on_start etc. first.
        sim.run_until(sim.now());
        // Use the engine's adhoc context through a synthetic message: launch
        // by calling start_walk on the node state via a crafted Step that
        // begins at node 0. Simpler: inject a Step from a phantom origin.
        sim.inject(
            NodeId(0),
            NodeId(0),
            WalkMsg::Step { id: 999, ttl, origin: NodeId(0), samples: vec![] },
        );
    }

    #[test]
    fn walk_completes_with_ttl_samples() {
        let mut sim = build(32, 1);
        launch(&mut sim, 10);
        sim.run_until(Time(10_000));
        let node0 = sim.node(NodeId(0)).unwrap();
        let samples = &node0.completed[&999];
        // Injected walk starts empty and collects one sample per hop
        // including the starting node's own.
        assert_eq!(samples.len(), 10);
        assert_eq!(sim.metrics().counter("walk.completed"), 1);
    }

    #[test]
    fn walk_samples_record_class_and_count() {
        let mut sim = build(16, 2);
        launch(&mut sim, 6);
        sim.run_until(Time(10_000));
        let samples = sim.node(NodeId(0)).unwrap().completed[&999].clone();
        for s in samples {
            assert_eq!(s.sieve_class, s.node.0 % 4);
            assert_eq!(s.item_count, s.node.0);
        }
    }

    #[test]
    fn ttl_one_returns_immediately() {
        let mut sim = build(8, 3);
        launch(&mut sim, 1);
        sim.run_until(Time(10_000));
        assert_eq!(sim.node(NodeId(0)).unwrap().completed[&999].len(), 1);
    }

    #[test]
    fn many_walks_visit_most_of_the_population() {
        let n = 64u64;
        let mut sim = build(n, 4);
        for w in 0..40u64 {
            sim.inject(
                NodeId(0),
                NodeId(0),
                WalkMsg::Step { id: w, ttl: 16, origin: NodeId(0), samples: vec![] },
            );
        }
        sim.run_until(Time(60_000));
        let node0 = sim.node(NodeId(0)).unwrap();
        assert_eq!(node0.completed.len(), 40);
        let distinct: std::collections::HashSet<NodeId> =
            node0.all_samples().iter().map(|s| s.node).collect();
        assert!(distinct.len() > 50, "only {} distinct nodes visited", distinct.len());
    }
}
