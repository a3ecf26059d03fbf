//! The phase engine: N pipelined sessions × depth-D, typed op mixes.
//!
//! This is the execution core of the scenario plane
//! ([`crate::scenario`]). A workload phase declares *what* traffic to
//! offer — an [`OpMix`] of typed operations, a session count, a pipeline
//! depth, optionally a target rate — and the engine turns that into
//! [`crate::Client`] calls: it keeps every session's pipeline full,
//! pumps virtual time, batch-harvests completions with
//! [`crate::Client::drain`], and attributes every outcome (success,
//! error taxonomy, staleness, latency) to the phase that issued it.
//! Depth 1 reproduces the old lock-step client; large depths overlap
//! round-trips — the ops/tick scaling experiment E14 sweeps.

use crate::client::{Client, Completion, OpError};
use crate::cluster::Cluster;
use crate::scenario::PhaseReport;
use crate::tuple::TupleSpec;
use crate::workload::Workload;
use dd_audit::VersionOracle;
use dd_sim::metrics::Reservoir;
use dd_sim::Time;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashMap;

/// A weighted mix of typed operations — the *shape* of one workload
/// phase's traffic. Weights are relative; an all-zero mix is idle (the
/// phase just lets protocols run, e.g. a repair window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Weight of single writes.
    pub put: u32,
    /// Weight of single reads.
    pub get: u32,
    /// Weight of deletes.
    pub delete: u32,
    /// Weight of attribute range scans.
    pub scan: u32,
    /// Weight of batched writes.
    pub multi_put: u32,
    /// Weight of tag-scoped reads.
    pub multi_get: u32,
    /// Items per batched write.
    pub batch: usize,
}

impl OpMix {
    /// The idle mix: no operations, the phase only advances time.
    #[must_use]
    pub fn idle() -> Self {
        OpMix { put: 0, get: 0, delete: 0, scan: 0, multi_put: 0, multi_get: 0, batch: 4 }
    }

    /// Pure single writes.
    #[must_use]
    pub fn puts() -> Self {
        Self::idle().put(1)
    }

    /// Pure single reads.
    #[must_use]
    pub fn gets() -> Self {
        Self::idle().get(1)
    }

    /// Pure batched writes of `batch` items each.
    #[must_use]
    pub fn multi_puts(batch: usize) -> Self {
        Self::idle().multi_put(1).batch(batch)
    }

    /// Pure tag-scoped reads.
    #[must_use]
    pub fn multi_gets() -> Self {
        Self::idle().multi_get(1)
    }

    /// Builder: weight of single writes.
    #[must_use]
    pub fn put(mut self, w: u32) -> Self {
        self.put = w;
        self
    }

    /// Builder: weight of single reads.
    #[must_use]
    pub fn get(mut self, w: u32) -> Self {
        self.get = w;
        self
    }

    /// Builder: weight of deletes.
    #[must_use]
    pub fn delete(mut self, w: u32) -> Self {
        self.delete = w;
        self
    }

    /// Builder: weight of attribute range scans.
    #[must_use]
    pub fn scan(mut self, w: u32) -> Self {
        self.scan = w;
        self
    }

    /// Builder: weight of batched writes.
    #[must_use]
    pub fn multi_put(mut self, w: u32) -> Self {
        self.multi_put = w;
        self
    }

    /// Builder: weight of tag-scoped reads.
    #[must_use]
    pub fn multi_get(mut self, w: u32) -> Self {
        self.multi_get = w;
        self
    }

    /// Builder: items per batched write.
    #[must_use]
    pub fn batch(mut self, items: usize) -> Self {
        self.batch = items;
        self
    }

    /// Whether this mix issues anything at all.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.total() == 0
    }

    fn total(&self) -> u64 {
        u64::from(self.put)
            + u64::from(self.get)
            + u64::from(self.delete)
            + u64::from(self.scan)
            + u64::from(self.multi_put)
            + u64::from(self.multi_get)
    }

    /// Draws the next op kind proportionally to the weights.
    fn pick(&self, rng: &mut SmallRng) -> Option<MixOp> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let mut roll = rng.gen_range(0..total);
        for (weight, op) in [
            (u64::from(self.put), MixOp::Put),
            (u64::from(self.get), MixOp::Get),
            (u64::from(self.delete), MixOp::Delete),
            (u64::from(self.scan), MixOp::Scan),
            (u64::from(self.multi_put), MixOp::MultiPut),
            (u64::from(self.multi_get), MixOp::MultiGet),
        ] {
            if roll < weight {
                return Some(op);
            }
            roll -= weight;
        }
        unreachable!("roll bounded by the weight total")
    }
}

#[derive(Debug, Clone, Copy)]
enum MixOp {
    Put,
    Get,
    Delete,
    Scan,
    MultiPut,
    MultiGet,
}

/// One outstanding operation, as the engine tracks it.
#[derive(Debug, Clone)]
struct Inflight {
    phase: usize,
    issued: Time,
    /// The key a put/delete acknowledges or a get resolves (staleness
    /// oracle); `None` for scans, aggregates and multi-ops.
    key: Option<String>,
}

/// The session pool plus the bookkeeping that turns completions into
/// phase-attributed counts. Sessions opened for earlier phases keep being
/// drained, so an op always lands in the report of the phase that issued
/// it even when it completes later.
pub(crate) struct Engine {
    sessions: Vec<Client>,
    /// Sessions the *current* phase issues into: `sessions[active..]`.
    active: usize,
    inflight: HashMap<u64, Inflight>,
    /// Latest acknowledged version per key — the staleness oracle, shared
    /// with the audit plane's convergence checker ([`dd_audit::VersionOracle`]).
    oracle: VersionOracle,
    rng: SmallRng,
}

impl Engine {
    pub(crate) fn new(rng: SmallRng) -> Self {
        Engine {
            sessions: Vec::new(),
            active: 0,
            inflight: HashMap::new(),
            oracle: VersionOracle::new(),
            rng,
        }
    }

    /// Opens `n` fresh sessions and makes them the active set.
    pub(crate) fn open_sessions(&mut self, cluster: &mut Cluster, n: usize) {
        self.active = self.sessions.len();
        for _ in 0..n {
            self.sessions.push(cluster.client());
        }
    }

    /// Operations submitted and not yet resolved, across all sessions.
    pub(crate) fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Tops up every active session's pipeline to `depth`, issuing at
    /// most `budget` operations drawn from `mix`. Returns how many were
    /// issued.
    pub(crate) fn refill(
        &mut self,
        cluster: &mut Cluster,
        workload: &mut Workload,
        phase: usize,
        mix: &OpMix,
        depth: usize,
        mut budget: u64,
    ) -> u64 {
        if mix.is_idle() {
            return 0;
        }
        let mut issued = 0;
        for idx in self.active..self.sessions.len() {
            while budget > 0 && self.sessions[idx].in_flight() < depth {
                let Some(op) = mix.pick(&mut self.rng) else { return issued };
                let now = cluster.sim.now();
                let session = &mut self.sessions[idx];
                let (req, key) = match op {
                    MixOp::Put => {
                        let put = workload.next_put();
                        let key = put.key.clone();
                        let p =
                            session.put(cluster, put.key, put.value, put.attr, put.tag.as_deref());
                        (p.req(), Some(key))
                    }
                    MixOp::Get => {
                        let key = workload.next_read_key();
                        let p = session.get(cluster, key.clone());
                        (p.req(), Some(key))
                    }
                    MixOp::Delete => {
                        let key = workload.next_read_key();
                        let p = session.delete(cluster, key.clone());
                        (p.req(), Some(key))
                    }
                    MixOp::Scan => {
                        let (lo, hi) = workload.next_scan_range();
                        (session.scan(cluster, lo, hi).req(), None)
                    }
                    MixOp::MultiPut => {
                        let m = workload.next_multi_put(mix.batch);
                        let items = m.items.into_iter().map(TupleSpec::from);
                        (session.multi_put(cluster, items).req(), None)
                    }
                    MixOp::MultiGet => {
                        let tag = workload.next_read_tag();
                        (session.multi_get(cluster, &tag).req(), None)
                    }
                };
                self.inflight.insert(req, Inflight { phase, issued: now, key });
                budget -= 1;
                issued += 1;
            }
        }
        issued
    }

    /// Drains every session and counts each resolved op into the report
    /// of the phase that issued it, its latency (when successful) into
    /// the reservoir beside that report.
    pub(crate) fn harvest(
        &mut self,
        cluster: &mut Cluster,
        phases: &mut [(PhaseReport, Reservoir)],
    ) {
        let now = cluster.sim.now();
        for session in &mut self.sessions {
            for (req, completion) in session.drain(cluster) {
                let Some(op) = self.inflight.remove(&req) else { continue };
                let (st, latencies) = &mut phases[op.phase];
                if completion.is_ok() {
                    st.ok += 1;
                    latencies.observe(now.since(op.issued).0 as f64);
                } else {
                    match completion.err() {
                        Some(OpError::Timeout { .. }) => st.errors.timeouts += 1,
                        Some(OpError::PartialResult { .. }) => st.errors.partials += 1,
                        Some(OpError::NoLiveEntry) => st.errors.no_entry += 1,
                        // Drain never yields AlreadyHarvested for its own
                        // session; count defensively as a timeout.
                        Some(OpError::AlreadyHarvested) | None => st.errors.timeouts += 1,
                    }
                }
                match completion {
                    Completion::Put(Ok(status)) | Completion::Delete(Ok(status)) => {
                        if let Some(key) = op.key {
                            self.oracle.note_ack(&key, status.version);
                        }
                    }
                    Completion::Get(Ok(Some(tuple))) => {
                        st.reads_found += 1;
                        if op.key.is_some_and(|k| self.oracle.is_stale(&k, tuple.version)) {
                            st.stale_reads += 1;
                        }
                    }
                    Completion::Get(Ok(None)) => st.reads_absent += 1,
                    Completion::Scan(Ok(items)) => st.tuples_read += items.len() as u64,
                    Completion::MultiGet(Ok(feed)) => st.tuples_read += feed.items.len() as u64,
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn idle_mix_picks_nothing() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(OpMix::idle().is_idle());
        assert_eq!(OpMix::idle().pick(&mut rng).map(|_| ()), None);
    }

    #[test]
    fn weighted_mix_tracks_its_weights() {
        let mix = OpMix::idle().put(1).get(3);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut gets = 0u32;
        let n = 4_000;
        for _ in 0..n {
            match mix.pick(&mut rng).expect("non-idle") {
                MixOp::Get => gets += 1,
                MixOp::Put => {}
                other => panic!("unweighted op drawn: {other:?}"),
            }
        }
        let frac = f64::from(gets) / f64::from(n);
        assert!((frac - 0.75).abs() < 0.03, "get fraction {frac}");
    }

    #[test]
    fn single_weight_mixes_are_pure() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            assert!(matches!(OpMix::puts().pick(&mut rng), Some(MixOp::Put)));
            assert!(matches!(OpMix::multi_gets().pick(&mut rng), Some(MixOp::MultiGet)));
        }
        assert_eq!(OpMix::multi_puts(7).batch, 7);
    }
}
