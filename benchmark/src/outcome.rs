//! What one pass over a workload measured, split by clock: [`SimStats`]
//! repeat exactly for a seed (virtual ticks, messages, counters);
//! [`HostStats`] carry the sandbox's noise (wall seconds, allocations).

use crate::spans::{totals_by_name, NameTotal, Recorder, Span};
use crate::stats::Histogram;
use dd_sim::rng::mix;
use dd_sim::Metrics;
use std::collections::BTreeMap;

/// Client operation kinds, in the order of [`KIND_NAMES`]; the last slot
/// holds latencies whose kind the caller cannot see (scenario drills).
pub const KINDS: usize = 7;
pub const PUT: usize = 0;
pub const GET: usize = 1;
pub const DELETE: usize = 2;
pub const SCAN: usize = 3;
pub const MPUT: usize = 4;
pub const MGET: usize = 5;
pub const ANY: usize = 6;
pub const KIND_NAMES: [&str; 6] = ["put", "get", "delete", "scan", "mput", "mget"];

/// Half the client timeout. A successful op this slow sat out a fault:
/// the drills' partition heals 10 000 ticks after it starts, and the ops
/// caught by it return 9 600 to 10 000 ticks late or time out. That wait
/// is the length of the scripted outage, not a latency of the store, and
/// at 0.1 to 0.2% of the drills' ops it would flip the 99.9th percentile
/// between 25 and 9 700 ticks from one seed to the next. Such ops are
/// counted in `core.client.stuck_ops_share` instead.
pub const STUCK_TICKS: u64 = dd_core::OP_TIMEOUT / 2;

#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    pub attempted: u64,
    pub ok: u64,
    /// Successful ops that took [`STUCK_TICKS`] or longer; they are kept
    /// out of the latency histograms.
    pub stuck_ops: u64,
    pub timeouts: u64,
    pub partials: u64,
    pub no_live_entry: u64,
    pub found_reads: u64,
    pub stale_reads: u64,
    /// Results checked against what the generator wrote (tuples read, or
    /// audited operations for the drills).
    pub checked_results: u64,
    pub safety_violations: u64,
    pub ticks: u64,
    pub final_tick: u64,
    pub net_sent: u64,
    pub latency: [Histogram; KINDS],
    /// `sim.metrics()` counters, as deltas over the timed section.
    pub counters: BTreeMap<&'static str, u64>,
    /// Σ `in_flight()` seen by each `drain`, and how many drains ran.
    pub probed: u64,
    pub drains: u64,
    pub audit_ops: u64,
    pub audit_warnings: u64,
}

impl SimStats {
    pub fn failed(&self) -> u64 {
        self.timeouts + self.partials + self.no_live_entry
    }

    pub fn resolved(&self) -> u64 {
        self.ok + self.failed()
    }

    /// Records the latency of a successful op of `kind`.
    pub fn record_latency(&mut self, kind: usize, ticks: u64) {
        if ticks >= STUCK_TICKS {
            self.stuck_ops += 1;
        } else {
            self.latency[kind].record(ticks);
        }
    }

    pub fn latency_all(&self) -> Histogram {
        let mut all = Histogram::default();
        for h in &self.latency {
            all.merge(h);
        }
        all
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Adds what the counters grew by since `before` was read.
    pub fn add_counter_deltas(&mut self, before: &BTreeMap<&'static str, u64>, after: &Metrics) {
        for (name, value) in after.counters() {
            let delta = value - before.get(name).copied().unwrap_or(0);
            if delta > 0 {
                *self.counters.entry(name).or_insert(0) += delta;
            }
        }
    }

    /// Hash of the resolved count, final sim tick, `net.sent`, per-kind
    /// latency histograms and error taxonomy. Equal across repeats of one
    /// seed; a change that only makes the program faster leaves it as it
    /// is, a change to the protocol moves it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix(self.resolved(), self.final_tick);
        for v in [self.net_sent, self.timeouts, self.partials, self.no_live_entry, self.stuck_ops] {
            h = mix(h, v);
        }
        for (kind, hist) in self.latency.iter().enumerate() {
            for (ticks, count) in hist.occupied() {
                h = mix(h, mix(kind as u64, mix(ticks, count)));
            }
        }
        h
    }
}

#[derive(Debug, Clone, Default)]
pub struct HostStats {
    /// `Cluster::new` + `settle` + preload.
    pub setup_s: f64,
    /// Wall of the timed submit/pump/drain loop, or of `run_scenario`.
    pub timed_s: f64,
    pub gen_ns_per_op: f64,
    pub peak_alloc_bytes: usize,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// ops/s of the last tenth of the ops over that of the first tenth.
    pub late_early_rate_ratio: f64,
    /// Mean wall of one drill, by library order (drills only).
    pub scenario_ms: [f64; 4],
    /// Wall of the same drills per observer plane (traced drills only):
    /// plain, audited, traced, instrumented.
    pub plane_s: [f64; 4],
    pub spans: Vec<Span>,
    pub span_totals: BTreeMap<&'static str, NameTotal>,
}

impl HostStats {
    /// Takes the spans of a traced pass (none: the pass was untraced).
    pub fn keep_spans(&mut self, rec: Option<Recorder>) {
        self.spans = rec.map(Recorder::finish).unwrap_or_default();
        self.span_totals = totals_by_name(&self.spans);
    }
}

/// What the state a pass left behind showed.
#[derive(Debug, Clone, Default)]
pub struct AfterRun {
    /// Acknowledged writes whose survival was checked, and how many of
    /// them no live replica held.
    pub durability_checked: u64,
    pub lost_writes: u64,
    /// `repair_sweep` and the settle that carries it out (0: too many
    /// nodes for a sweep).
    pub repair_sweep_ms: f64,
    /// On the fullest persist node.
    pub digest_us: f64,
    pub shared_summary_us: f64,
    /// Payload bytes held by the persist layer, over those clients wrote.
    pub store_bytes_per_user_byte: f64,
    /// Clientless `pump` on the loaded cluster (traced passes only).
    pub idle_loaded_us_per_tick: f64,
}

pub struct Pass {
    pub sim: SimStats,
    pub host: HostStats,
    /// Present on the passes asked to inspect what they left behind.
    pub after: Option<AfterRun>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_moves_with_sim_results_and_ignores_host_noise() {
        let mut a = SimStats { ok: 10, final_tick: 99, net_sent: 1234, ..SimStats::default() };
        a.latency[GET].record(7);
        let base = a.fingerprint();
        assert_eq!(base, a.clone().fingerprint());
        let mut slower = a.clone();
        slower.latency[GET].record(8);
        assert_ne!(base, slower.fingerprint());
        let mut other_kind = SimStats { latency: Default::default(), ..a.clone() };
        other_kind.latency[PUT].record(7);
        assert_ne!(base, other_kind.fingerprint());
        assert_ne!(base, SimStats { timeouts: 1, ok: 9, ..a.clone() }.fingerprint());
        assert_ne!(base, SimStats { net_sent: 1235, ..a }.fingerprint());
    }
}
