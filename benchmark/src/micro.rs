//! Single-layer timings, each around one public call with nothing else
//! on the path. They run in a traced pass only and are the same for
//! every workload; the README says which workload each should move.

use crate::stats::median;
use dd_core::SieveSpec;
use dd_epidemic::{Digest, RumorId, Summary};
use dd_sieve::ItemMeta;
use dd_sim::rng::{splitmix64, stream_rng};
use dd_sim::{Ctx, Duration, Metrics, NetConfig, NodeId, Process, Sim, SimConfig, TimerTag};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Median over three rounds of the seconds `round` takes.
fn median_secs(mut round: impl FnMut()) -> f64 {
    median_of_three(|| {
        let started = Instant::now();
        round();
        started.elapsed().as_secs_f64()
    })
}

fn median_of_three(mut round: impl FnMut() -> f64) -> f64 {
    median(&[round(), round(), round()])
}

/// Forwards every message to the next node and re-arms one timer: the
/// least a node can do and still keep the event queue busy.
struct Forwarder {
    next: NodeId,
}

impl Process for Forwarder {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send(self.next, 0);
        ctx.set_timer(Duration(10), TimerTag(0));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, hops: u64) {
        ctx.send(self.next, hops + 1);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, tag: TimerTag) {
        ctx.set_timer(Duration(10), tag);
    }
}

fn engine_events_per_sec(nodes: u64, divisor: u32) -> f64 {
    let events = 300_000 / divisor;
    let secs = median_of_three(|| {
        let mut sim: Sim<Forwarder> = Sim::new(SimConfig::default().seed(nodes));
        for i in 0..nodes {
            sim.add_node(NodeId(i), Forwarder { next: NodeId((i + 1) % nodes) });
        }
        // Start events first, so the timed steps are messages and timers.
        for _ in 0..nodes {
            sim.step();
        }
        let started = Instant::now();
        for _ in 0..events {
            assert!(sim.step(), "forwarders never run dry");
        }
        started.elapsed().as_secs_f64()
    });
    f64::from(events) / secs
}

fn route_ns(net: &NetConfig, divisor: u32) -> f64 {
    let calls = 1_000_000 / u64::from(divisor);
    let mut rng = stream_rng(7, 0);
    let secs = median_secs(|| {
        for seq in 0..calls {
            black_box(net.route(&mut rng, 7, NodeId(seq % 40), NodeId((seq + 1) % 40), seq));
        }
    });
    secs * 1e9 / calls as f64
}

/// A sink with fifty names registered, as a loaded cluster's has.
fn loaded_metrics() -> (Metrics, Vec<&'static str>) {
    let names: Vec<&'static str> = (0..50)
        .map(|i| &*Box::leak(format!("layer{}.counter{i}", i % 7).into_boxed_str()))
        .collect();
    let mut metrics = Metrics::new();
    for name in &names {
        metrics.incr(name);
        metrics.observe(name, 1.0);
    }
    (metrics, names)
}

fn metrics_ns(observe: bool, divisor: u32) -> f64 {
    let calls = 2_000_000 / divisor as usize;
    let (mut metrics, names) = loaded_metrics();
    let secs = median_secs(|| {
        for i in 0..calls {
            let name = names[i % names.len()];
            if observe {
                metrics.observe(name, i as f64);
            } else {
                metrics.incr(name);
            }
        }
        black_box(&metrics);
    });
    secs * 1e9 / calls as f64
}

/// Ten thousand rumor ids, and a second set that differs in one in fifty.
fn id_sets() -> (Vec<RumorId>, Vec<RumorId>) {
    let mut state = 0xA27E;
    let ours: Vec<RumorId> = (0..10_000).map(|_| RumorId(splitmix64(&mut state))).collect();
    let theirs = ours
        .iter()
        .enumerate()
        .map(|(i, &id)| if i % 50 == 0 { RumorId(splitmix64(&mut state)) } else { id })
        .collect();
    (ours, theirs)
}

fn summary_diff_us(divisor: u32) -> f64 {
    let calls = 20_000 / divisor;
    let (ours, theirs) = id_sets();
    let buckets = dd_core::persist::REPAIR_BUCKETS;
    let (a, b) = (Summary::from_ids(buckets, ours), Summary::from_ids(buckets, theirs));
    let secs = median_secs(|| {
        for _ in 0..calls {
            black_box(black_box(&a).diff(black_box(&b)));
        }
    });
    secs * 1e6 / f64::from(calls)
}

fn digest_missing_us(divisor: u32) -> f64 {
    let calls = 200 / divisor;
    let (ours, theirs) = id_sets();
    let (a, b) = (Digest::from_ids(ours), Digest::from_ids(theirs));
    let secs = median_secs(|| {
        for _ in 0..calls {
            black_box(black_box(&a).missing_from(black_box(&b)));
        }
    });
    secs * 1e6 / f64::from(calls)
}

fn sieve_accepts_ns(divisor: u32) -> f64 {
    let calls = 2_000_000 / u64::from(divisor);
    let sieve = SieveSpec::default_for(3, 40, 3);
    let mut state = 0x51E7E;
    let secs = median_secs(|| {
        for _ in 0..calls {
            black_box(sieve.accepts(&ItemMeta::from_key_hash(splitmix64(&mut state))));
        }
    });
    secs * 1e9 / calls as f64
}

/// Every single-layer timing, by metric name; a smoke run divides every
/// call count by `divisor`.
pub fn run(divisor: u32) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("sim.engine.events_per_sec_n40", engine_events_per_sec(40, divisor)),
        ("sim.engine.events_per_sec_n2000", engine_events_per_sec(2_000, divisor)),
        ("sim.net.route_ns", route_ns(&NetConfig::new(), divisor)),
        ("sim.net.route_lossy_ns", route_ns(&NetConfig::new().drop_prob(0.05), divisor)),
        ("sim.metrics.incr_ns", metrics_ns(false, divisor)),
        ("sim.metrics.observe_ns", metrics_ns(true, divisor)),
        ("epidemic.antientropy.summary_diff_us", summary_diff_us(divisor)),
        ("epidemic.antientropy.digest_missing_us", digest_missing_us(divisor)),
        ("core.sieve_spec.accepts_ns", sieve_accepts_ns(divisor)),
    ])
}
