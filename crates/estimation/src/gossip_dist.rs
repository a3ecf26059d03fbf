//! Gossip protocol for distribution estimation.
//!
//! Nodes seed a [`DistSketch`] with their locally stored items and push the
//! sketch to a random peer each round (push-pull: the receiver replies with
//! its own merged sketch). Because the sketch union is idempotent and keyed
//! by item hash, replication-induced duplicates (the paper's §III-B-1
//! concern) do not bias the estimate, and nodes that crash simply stop
//! contributing — their items remain represented via replicas.

use crate::sketch::DistSketch;
use dd_membership::PeerSampler;
use dd_sim::{Ctx, Duration, NodeId, Process, TimerTag};
use rand::Rng;

/// Timer tag for sketch gossip.
pub const DIST_TIMER: TimerTag = TimerTag(0xD157);

/// Messages: a sketch push (expects a reply) or a reply.
#[derive(Debug, Clone)]
pub enum DistMsg {
    /// Push of the sender's sketch; receiver merges and replies.
    Push(DistSketch),
    /// Reply carrying the receiver's merged sketch.
    Reply(DistSketch),
}

/// Distribution-estimation gossip node.
#[derive(Debug, Clone)]
pub struct DistEstimationNode<S> {
    /// Peer source.
    pub peers: S,
    /// The merged sketch (public: the store layer reads the estimate).
    pub sketch: DistSketch,
    period: Duration,
}

impl<S: PeerSampler> DistEstimationNode<S> {
    /// Creates a node whose local items are already folded into `sketch`.
    #[must_use]
    pub fn new(peers: S, sketch: DistSketch, period: Duration) -> Self {
        DistEstimationNode { peers, sketch, period }
    }

    /// Convenience: seeds a fresh sketch of capacity `k` from local
    /// `(item_hash, attr)` pairs.
    #[must_use]
    pub fn seeded(
        peers: S,
        k: usize,
        items: impl IntoIterator<Item = (u64, f64)>,
        period: Duration,
    ) -> Self {
        let mut sketch = DistSketch::new(k);
        for (h, v) in items {
            sketch.observe(h, v);
        }
        Self::new(peers, sketch, period)
    }
}

impl<S: PeerSampler + 'static> Process for DistEstimationNode<S> {
    type Msg = DistMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let jitter = ctx.rng().gen_range(0..self.period.0.max(1));
        ctx.set_timer(Duration(jitter), DIST_TIMER);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        match msg {
            DistMsg::Push(sketch) => {
                self.sketch.merge(&sketch);
                ctx.send(from, DistMsg::Reply(self.sketch.clone()));
                ctx.metrics().incr("dist.exchanges");
            }
            DistMsg::Reply(sketch) => {
                self.sketch.merge(&sketch);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, tag: TimerTag) {
        if tag != DIST_TIMER {
            return;
        }
        if let Some(peer) = self.peers.sample_one(ctx.rng()) {
            ctx.send(peer, DistMsg::Push(self.sketch.clone()));
        }
        ctx.set_timer(self.period, DIST_TIMER);
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        ctx.set_timer(self.period, DIST_TIMER);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_membership::MembershipOracle;
    use dd_sim::{Sim, SimConfig, Time};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rand_distr::{Distribution, Normal};

    /// Builds a population where every item is replicated on `r` nodes
    /// (duplicate hazard) and checks the gossiped sketch still estimates
    /// the distribution accurately.
    #[test]
    fn converges_despite_replication_duplicates() {
        let n = 100u64;
        let r = 5usize;
        let items_per_node = 50usize;
        let period = Duration(100);
        let mut rng = SmallRng::seed_from_u64(11);
        let dist = Normal::new(50.0, 10.0).unwrap();

        // Generate distinct items, then replicate each onto r nodes.
        let total_items = (n as usize) * items_per_node / r;
        let items: Vec<(u64, f64)> = (0..total_items)
            .map(|i| (dd_sim::rng::mix(0xA11, i as u64), dist.sample(&mut rng)))
            .collect();
        let mut per_node: Vec<Vec<(u64, f64)>> = vec![Vec::new(); n as usize];
        for (idx, item) in items.iter().enumerate() {
            for k in 0..r {
                per_node[(idx * 13 + k * 29) % n as usize].push(*item);
            }
        }

        let mut sim: Sim<DistEstimationNode<MembershipOracle>> =
            Sim::new(SimConfig::default().seed(2));
        for i in 0..n {
            let node = DistEstimationNode::seeded(
                MembershipOracle::dense(NodeId(i), n),
                512,
                per_node[i as usize].iter().copied(),
                period,
            );
            sim.add_node(NodeId(i), node);
        }
        sim.run_until(Time(20 * 100));

        let truth: Vec<f64> = items.iter().map(|(_, v)| *v).collect();
        for probe in [0u64, n / 2, n - 1] {
            let sketch = &sim.node(NodeId(probe)).unwrap().sketch;
            let ks = sketch.ks_distance(&truth);
            assert!(ks < 0.08, "node {probe} KS {ks}");
            let est = sketch.distinct_estimate();
            let rel = (est - total_items as f64).abs() / total_items as f64;
            assert!(rel < 0.25, "distinct estimate {est} vs {total_items}");
        }
    }

    #[test]
    fn sketches_equalise_across_nodes() {
        let n = 32u64;
        let period = Duration(100);
        let mut sim: Sim<DistEstimationNode<MembershipOracle>> =
            Sim::new(SimConfig::default().seed(4));
        for i in 0..n {
            // Each node holds one item with value = its id.
            let node = DistEstimationNode::seeded(
                MembershipOracle::dense(NodeId(i), n),
                64,
                [(dd_sim::rng::mix(7, i), i as f64)],
                period,
            );
            sim.add_node(NodeId(i), node);
        }
        sim.run_until(Time(25 * 100));
        let reference = sim.node(NodeId(0)).unwrap().sketch.clone();
        for i in 1..n {
            assert_eq!(
                sim.node(NodeId(i)).unwrap().sketch.values(),
                reference.values(),
                "node {i} sketch diverges"
            );
        }
        assert_eq!(reference.len(), n as usize, "all 32 items fit the sketch");
    }

    #[test]
    fn churned_nodes_do_not_stall_estimation() {
        let n = 60u64;
        let period = Duration(100);
        let mut sim: Sim<DistEstimationNode<MembershipOracle>> =
            Sim::new(SimConfig::default().seed(6));
        for i in 0..n {
            let node = DistEstimationNode::seeded(
                MembershipOracle::dense(NodeId(i), n),
                256,
                [(dd_sim::rng::mix(9, i), i as f64)],
                period,
            );
            sim.add_node(NodeId(i), node);
        }
        // Kill a third of the population early.
        for i in 0..n / 3 {
            sim.schedule_down(Time(150), NodeId(i * 3));
        }
        sim.run_until(Time(30 * 100));
        let alive = NodeId(1);
        let sketch = &sim.node(alive).unwrap().sketch;
        // The survivors' sketch should still cover most of the population's
        // items (dead nodes' items were gossiped before/after they died).
        assert!(sketch.len() as u64 >= n * 2 / 3, "sketch len {}", sketch.len());
    }
}
