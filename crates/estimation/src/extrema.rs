//! Extrema-propagation network size estimation.
//!
//! Every node draws `K` i.i.d. `Exp(1)` values; gossip exchanges keep the
//! element-wise minimum. Once the vectors converge (they do in O(diameter)
//! rounds), every node knows the same `K` global minima, and
//! `N̂ = (K−1) / Σ minima` estimates the number of participating nodes
//! (the minimum of `N` exponentials is `Exp(N)`, so each slot has mean
//! `1/N`). Accuracy improves with `K` (relative error ≈ `1/√(K−2)`).

use dd_membership::PeerSampler;
use dd_sim::{Ctx, Duration, NodeId, Process, TimerTag};
use rand::Rng;
use rand_distr::{Distribution, Exp1};

/// Timer tag for gossip exchanges.
pub const EXTREMA_TIMER: TimerTag = TimerTag(0xE87);

/// The mergeable extrema vector and its estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtremaEstimator {
    mins: Vec<f64>,
}

impl ExtremaEstimator {
    /// Creates the node's initial vector of `k` exponential draws.
    ///
    /// # Panics
    /// Panics if `k < 3` (the estimator needs `K − 1 > 1` for finite
    /// variance).
    #[must_use]
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, k: usize) -> Self {
        assert!(k >= 3, "extrema estimation needs k >= 3");
        let mins = (0..k).map(|_| Exp1.sample(rng)).collect();
        ExtremaEstimator { mins }
    }

    /// Builds from an explicit vector (deserialisation, tests).
    #[must_use]
    pub fn from_mins(mins: Vec<f64>) -> Self {
        ExtremaEstimator { mins }
    }

    /// The vector of current minima.
    #[must_use]
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Element-wise minimum merge — commutative, associative, idempotent,
    /// hence safe under duplicated and reordered gossip.
    ///
    /// Returns `true` when any slot changed (useful for convergence
    /// detection).
    pub fn merge(&mut self, other: &ExtremaEstimator) -> bool {
        let mut changed = false;
        for (a, b) in self.mins.iter_mut().zip(&other.mins) {
            if b < a {
                *a = *b;
                changed = true;
            }
        }
        changed
    }

    /// Current size estimate `(K−1)/Σ minima`.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        let sum: f64 = self.mins.iter().sum();
        if sum <= 0.0 {
            return f64::INFINITY;
        }
        (self.mins.len() as f64 - 1.0) / sum
    }
}

/// Gossip process converging every node's vector to the global minima.
#[derive(Debug, Clone)]
pub struct ExtremaNode<S> {
    /// Peer source.
    pub peers: S,
    /// The local estimator state.
    pub estimator: ExtremaEstimator,
    period: Duration,
    fanout: usize,
}

/// Messages: just the vector.
pub type ExtremaMsg = Vec<f64>;

impl<S: PeerSampler> ExtremaNode<S> {
    /// Creates a node gossiping every `period` ticks to `fanout` peers.
    #[must_use]
    pub fn new(peers: S, estimator: ExtremaEstimator, period: Duration, fanout: usize) -> Self {
        ExtremaNode { peers, estimator, period, fanout }
    }

    /// Current size estimate.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        self.estimator.estimate()
    }
}

impl<S: PeerSampler + 'static> Process for ExtremaNode<S> {
    type Msg = ExtremaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let jitter = ctx.rng().gen_range(0..self.period.0.max(1));
        ctx.set_timer(Duration(jitter), EXTREMA_TIMER);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        let other = ExtremaEstimator::from_mins(msg);
        if self.estimator.merge(&other) {
            ctx.metrics().incr("extrema.updates");
        }
        // Push-pull: reply with our (merged) vector so both converge.
        let _ = from;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, tag: TimerTag) {
        if tag != EXTREMA_TIMER {
            return;
        }
        let targets = self.peers.sample_peers(ctx.rng(), self.fanout);
        for t in targets {
            ctx.send(t, self.estimator.mins().to_vec());
        }
        ctx.set_timer(self.period, EXTREMA_TIMER);
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        ctx.set_timer(self.period, EXTREMA_TIMER);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_membership::MembershipOracle;
    use dd_sim::{Sim, SimConfig, Time};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn merge_keeps_element_wise_minima() {
        let mut a = ExtremaEstimator::from_mins(vec![0.5, 2.0, 1.0]);
        let b = ExtremaEstimator::from_mins(vec![1.0, 1.5, 0.2]);
        assert!(a.merge(&b));
        assert_eq!(a.mins(), &[0.5, 1.5, 0.2]);
        // idempotent
        let mut a2 = a.clone();
        assert!(!a2.merge(&b));
        assert_eq!(a2, a);
    }

    #[test]
    fn merge_is_commutative() {
        let x = ExtremaEstimator::from_mins(vec![0.3, 0.9]);
        let y = ExtremaEstimator::from_mins(vec![0.7, 0.1]);
        let mut xy = x.clone();
        xy.merge(&y);
        let mut yx = y.clone();
        yx.merge(&x);
        assert_eq!(xy, yx);
    }

    #[test]
    fn offline_estimate_converges_to_population_size() {
        // Merge all vectors offline: estimator should be within ~10 % for
        // K = 512 at N = 1000.
        let n = 1_000u64;
        let k = 512;
        let mut rng = SmallRng::seed_from_u64(42);
        let mut global = ExtremaEstimator::generate(&mut rng, k);
        for _ in 1..n {
            let node = ExtremaEstimator::generate(&mut rng, k);
            global.merge(&node);
        }
        let est = global.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.15, "estimate {est} for N={n} (rel err {rel})");
    }

    #[test]
    fn accuracy_improves_with_k() {
        let n = 500u64;
        let err_for_k = |k: usize, seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut global = ExtremaEstimator::generate(&mut rng, k);
            for _ in 1..n {
                global.merge(&ExtremaEstimator::generate(&mut rng, k));
            }
            (global.estimate() - n as f64).abs() / n as f64
        };
        // Average over a few seeds to avoid flakiness.
        let small: f64 = (0..5).map(|s| err_for_k(16, s)).sum::<f64>() / 5.0;
        let large: f64 = (0..5).map(|s| err_for_k(1024, s)).sum::<f64>() / 5.0;
        assert!(large < small, "k=1024 err {large} should beat k=16 err {small}");
        assert!(large < 0.1);
    }

    #[test]
    fn estimate_of_single_node_is_small() {
        let mut rng = SmallRng::seed_from_u64(1);
        let e = ExtremaEstimator::generate(&mut rng, 128);
        // One node: estimate should be O(1), certainly below 3.
        assert!(e.estimate() < 3.0, "single-node estimate {}", e.estimate());
    }

    #[test]
    fn gossip_converges_all_nodes_to_common_estimate() {
        let n = 200u64;
        let k = 256;
        let period = Duration(100);
        let mut sim: Sim<ExtremaNode<MembershipOracle>> = Sim::new(SimConfig::default().seed(9));
        let mut seeder = SmallRng::seed_from_u64(77);
        for i in 0..n {
            let est = ExtremaEstimator::generate(&mut seeder, k);
            let oracle = MembershipOracle::dense(NodeId(i), n);
            sim.add_node(NodeId(i), ExtremaNode::new(oracle, est, period, 2));
        }
        sim.run_until(Time(30 * 100));
        let estimates: Vec<f64> = (0..n).map(|i| sim.node(NodeId(i)).unwrap().estimate()).collect();
        let first = estimates[0];
        assert!(
            estimates.iter().all(|e| (e - first).abs() / first < 0.01),
            "all nodes should agree after convergence"
        );
        let rel = (first - n as f64).abs() / n as f64;
        assert!(rel < 0.2, "converged estimate {first} for N={n}");
    }

    #[test]
    #[should_panic(expected = "k >= 3")]
    fn tiny_k_is_rejected() {
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = ExtremaEstimator::generate(&mut rng, 2);
    }
}
