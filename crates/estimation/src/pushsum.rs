//! Push-sum gossip aggregation (Kempe, Dobra, Gehrke).
//!
//! §III-C of the paper: simple aggregations — counts, maximums, averages —
//! should be available "with minimal overhead". Push-sum computes averages
//! (and therefore sums and counts) with mass conservation: each node holds
//! `(sum, weight)`, each round it sends half of both to a random peer and
//! keeps half; `sum/weight` converges exponentially to the global average
//! at every node. Min/max propagate by simple idempotent gossip.

use dd_membership::PeerSampler;
use dd_sim::{Ctx, Duration, NodeId, Process, TimerTag};
use rand::Rng;

/// Timer tag for push-sum rounds.
pub const PUSHSUM_TIMER: TimerTag = TimerTag(0xA66);

/// Which aggregate a node is computing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Global average of the nodes' values.
    Average,
    /// Global sum (push-sum average × size estimate supplied by caller, or
    /// weight-1-at-one-node trick when used via [`PushSumState::for_sum`]).
    Sum,
    /// Number of participating nodes (value 1 everywhere, weight 1 at one
    /// designated node).
    Count,
    /// Global minimum (idempotent gossip).
    Min,
    /// Global maximum (idempotent gossip).
    Max,
}

/// Sans-IO push-sum state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushSumState {
    sum: f64,
    weight: f64,
    minimum: f64,
    maximum: f64,
}

impl PushSumState {
    /// Standard averaging initialisation: every node starts with its local
    /// value and weight 1.
    #[must_use]
    pub fn for_average(value: f64) -> Self {
        PushSumState { sum: value, weight: 1.0, minimum: value, maximum: value }
    }

    /// Counting initialisation (Jelasity et al.): every node holds value 1;
    /// exactly one node (the initiator) holds weight 1, everyone else 0.
    /// The converged average `Σ1/1 = N` is the population size; more
    /// generally `sum/weight → N`.
    #[must_use]
    pub fn for_count(initiator: bool) -> Self {
        PushSumState {
            sum: 1.0,
            weight: if initiator { 1.0 } else { 0.0 },
            minimum: 1.0,
            maximum: 1.0,
        }
    }

    /// Sum initialisation: value at every node, weight 1 only at the
    /// initiator, so `sum/weight → Σ values`.
    #[must_use]
    pub fn for_sum(value: f64, initiator: bool) -> Self {
        PushSumState {
            sum: value,
            weight: if initiator { 1.0 } else { 0.0 },
            minimum: value,
            maximum: value,
        }
    }

    /// Splits the state for one gossip round: returns the half to send;
    /// `self` keeps the other half. Mass (`sum`, `weight`) is conserved.
    pub fn emit_half(&mut self) -> (f64, f64) {
        self.sum /= 2.0;
        self.weight /= 2.0;
        (self.sum, self.weight)
    }

    /// Absorbs a received share.
    pub fn absorb(&mut self, sum: f64, weight: f64) {
        self.sum += sum;
        self.weight += weight;
    }

    /// Merges min/max extremes (independent of mass exchange).
    pub fn merge_extremes(&mut self, minimum: f64, maximum: f64) {
        self.minimum = self.minimum.min(minimum);
        self.maximum = self.maximum.max(maximum);
    }

    /// The current ratio estimate (`sum/weight`); `None` while this node's
    /// weight is (numerically) zero.
    #[must_use]
    pub fn ratio(&self) -> Option<f64> {
        (self.weight > 1e-12).then(|| self.sum / self.weight)
    }

    /// Current mass, for conservation checks.
    #[must_use]
    pub fn mass(&self) -> (f64, f64) {
        (self.sum, self.weight)
    }

    /// Observed minimum.
    #[must_use]
    pub fn minimum(&self) -> f64 {
        self.minimum
    }

    /// Observed maximum.
    #[must_use]
    pub fn maximum(&self) -> f64 {
        self.maximum
    }
}

/// Push-sum share exchanged between nodes.
#[derive(Debug, Clone, Copy)]
pub struct PushSumMsg {
    /// Half of the sender's sum.
    pub sum: f64,
    /// Half of the sender's weight.
    pub weight: f64,
    /// Sender's running minimum.
    pub minimum: f64,
    /// Sender's running maximum.
    pub maximum: f64,
}

/// Push-sum gossip process.
#[derive(Debug, Clone)]
pub struct PushSumNode<S> {
    /// Peer source.
    pub peers: S,
    /// Local aggregation state.
    pub state: PushSumState,
    period: Duration,
}

impl<S: PeerSampler> PushSumNode<S> {
    /// Creates a node gossiping once per `period`.
    #[must_use]
    pub fn new(peers: S, state: PushSumState, period: Duration) -> Self {
        PushSumNode { peers, state, period }
    }

    /// Current aggregate estimates `(avg_or_ratio, min, max)`.
    #[must_use]
    pub fn estimates(&self) -> (Option<f64>, f64, f64) {
        (self.state.ratio(), self.state.minimum(), self.state.maximum())
    }
}

impl<S: PeerSampler + 'static> Process for PushSumNode<S> {
    type Msg = PushSumMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let jitter = ctx.rng().gen_range(0..self.period.0.max(1));
        ctx.set_timer(Duration(jitter), PUSHSUM_TIMER);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _from: NodeId, msg: Self::Msg) {
        self.state.absorb(msg.sum, msg.weight);
        self.state.merge_extremes(msg.minimum, msg.maximum);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, tag: TimerTag) {
        if tag != PUSHSUM_TIMER {
            return;
        }
        if let Some(peer) = self.peers.sample_one(ctx.rng()) {
            let (s, w) = self.state.emit_half();
            ctx.send(
                peer,
                PushSumMsg {
                    sum: s,
                    weight: w,
                    minimum: self.state.minimum(),
                    maximum: self.state.maximum(),
                },
            );
            ctx.metrics().incr("pushsum.rounds");
        }
        ctx.set_timer(self.period, PUSHSUM_TIMER);
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        ctx.set_timer(self.period, PUSHSUM_TIMER);
    }
}

/// Runs push-sum over `n` simulated nodes holding `values` and returns the
/// per-node ratio estimates after `rounds` (harness for E10 and §III-C).
#[must_use]
pub fn run_pushsum(values: &[f64], rounds: u64, period: u64, seed: u64) -> Vec<Option<f64>> {
    use dd_membership::MembershipOracle;
    use dd_sim::{Sim, SimConfig, Time};
    let n = values.len() as u64;
    let mut sim: Sim<PushSumNode<MembershipOracle>> = Sim::new(SimConfig::default().seed(seed));
    for (i, &v) in values.iter().enumerate() {
        let id = NodeId(i as u64);
        sim.add_node(
            id,
            PushSumNode::new(
                MembershipOracle::dense(id, n),
                PushSumState::for_average(v),
                Duration(period),
            ),
        );
    }
    sim.run_until(Time(rounds * period));
    (0..n).map(|i| sim.node(NodeId(i)).unwrap().state.ratio()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_absorb_conserves_mass() {
        let mut a = PushSumState::for_average(10.0);
        let mut b = PushSumState::for_average(20.0);
        let (s, w) = a.emit_half();
        b.absorb(s, w);
        let (sa, wa) = a.mass();
        let (sb, wb) = b.mass();
        assert!((sa + sb - 30.0).abs() < 1e-12);
        assert!((wa + wb - 2.0).abs() < 1e-12);
    }

    #[test]
    fn two_nodes_converge_to_mean() {
        let mut a = PushSumState::for_average(0.0);
        let mut b = PushSumState::for_average(100.0);
        for _ in 0..60 {
            let (s, w) = a.emit_half();
            b.absorb(s, w);
            let (s, w) = b.emit_half();
            a.absorb(s, w);
        }
        assert!((a.ratio().unwrap() - 50.0).abs() < 1e-6);
        assert!((b.ratio().unwrap() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn count_mode_estimates_population() {
        // Offline round-robin exchange across 8 nodes.
        let n = 8;
        let mut states: Vec<PushSumState> =
            (0..n).map(|i| PushSumState::for_count(i == 0)).collect();
        for round in 0..200 {
            for i in 0..n {
                let j = (i + 1 + round % (n - 1)) % n;
                let (s, w) = states[i].emit_half();
                states[j].absorb(s, w);
            }
        }
        for s in &states {
            let est = s.ratio().expect("weight spread to all nodes");
            assert!((est - n as f64).abs() < 0.05, "count estimate {est}");
        }
    }

    #[test]
    fn extremes_merge_idempotently() {
        let mut s = PushSumState::for_average(5.0);
        s.merge_extremes(1.0, 9.0);
        s.merge_extremes(3.0, 7.0);
        assert_eq!(s.minimum(), 1.0);
        assert_eq!(s.maximum(), 9.0);
    }

    #[test]
    fn ratio_is_none_without_weight() {
        let s = PushSumState::for_count(false);
        assert!(s.ratio().is_none());
    }

    #[test]
    fn simulated_average_converges_everywhere() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let truth = 49.5;
        let est = run_pushsum(&values, 40, 100, 3);
        for (i, e) in est.iter().enumerate() {
            let e = e.expect("converged weight");
            assert!((e - truth).abs() / truth < 0.02, "node {i}: {e}");
        }
    }

    #[test]
    fn simulated_min_max_propagate() {
        use dd_membership::MembershipOracle;
        use dd_sim::{Sim, SimConfig, Time};
        let n = 64u64;
        let mut sim: Sim<PushSumNode<MembershipOracle>> = Sim::new(SimConfig::default().seed(5));
        for i in 0..n {
            sim.add_node(
                NodeId(i),
                PushSumNode::new(
                    MembershipOracle::dense(NodeId(i), n),
                    PushSumState::for_average(i as f64),
                    Duration(100),
                ),
            );
        }
        sim.run_until(Time(25 * 100));
        for i in 0..n {
            let (_, min, max) = sim.node(NodeId(i)).unwrap().estimates();
            assert_eq!(min, 0.0, "node {i} min");
            assert_eq!(max, (n - 1) as f64, "node {i} max");
        }
    }
}
