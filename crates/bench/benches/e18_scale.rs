//! E18 — Scale: throughput and memory across a node-count × op-count
//! grid ({40, 400, 2000} nodes × {1k, 20k, 200k} ops).
//!
//! PR 7's scaling work — interned keys/tags with cached hashes,
//! zero-copy `Bytes` values, the epoch-gated failure-detector sweep,
//! pre-sized event queues and O(1) streaming metrics — must move the
//! large cells by an order of magnitude, not just shave constants. The
//! baseline numbers are the measured grid of the pre-optimisation tree
//! (`String` keys, per-tick O(N²) liveness sweep, unbounded metric
//! series); they are frozen here so a scaling regression fails the bench
//! loudly. Three gates:
//!
//! * the 2000-node × 200k-op cell must run at least [`SPEEDUP_GATE`]×
//!   the frozen baseline throughput;
//! * on the full grid, every cell must run at least [`CELL_FLOOR`]× its
//!   frozen baseline — no cell may pay for another's gain;
//! * throughput degradation must stay **sub-linear in node count**: at
//!   the heaviest op count, growing the cluster R× may cost at most R×
//!   in ops/sec (the pre-opt tree failed this: 5× the nodes cost 34×).
//!
//! Peak memory rides along as an allocated-bytes proxy from a counting
//! global allocator.
//!
//! A second section, `bring_up`, times `Cluster::new` and the first
//! `settle` on their own at {40, 400, 2000, 8000, 20 000} persist nodes
//! and records the heap they need, beside the figures of the tree before
//! bring-up was made linear (a peer list per persist node, a detector
//! sweep over every pair, a population estimate per soft node). Seconds
//! are the host's; the gate is on bytes, which repeat exactly: growing the
//! population R× from 2000 nodes may cost at most 1.2 R× the heap.
//!
//! Emits `BENCH_scale.json` at the workspace root. `E18_SMOKE=1` restricts
//! the grid to 40/400 nodes and bring-up to 8000 for CI.

use criterion::{criterion_group, criterion_main, Criterion};
use dd_bench::{f, n, table_header, table_row};
use dd_core::{Cluster, ClusterConfig, Workload, WorkloadKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Counting wrapper around the system allocator: tracks live bytes and
/// the high-water mark, the bench's peak-RSS proxy.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates allocation verbatim to `System`; the atomics only
// account for sizes and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SESSIONS: usize = 8;
const DEPTH: usize = 32;
const QUANTUM: u64 = 25;

const NODE_GRID: &[u64] = &[40, 400, 2000];
const OP_GRID: &[u64] = &[1_000, 20_000, 200_000];

/// Minimum throughput improvement over the frozen baseline at the
/// heaviest cell (2000 nodes × 200k ops).
const SPEEDUP_GATE: f64 = 5.0;

/// Minimum throughput of any full-grid cell relative to its frozen
/// baseline.
const CELL_FLOOR: f64 = 0.95;

/// Measured ops/sec of the pre-optimisation tree, per (nodes, ops) cell
/// (same driver, same seeds, release build).
const BASELINE: &[(u64, u64, f64)] = &[
    (40, 1_000, 212_150.0),
    (40, 20_000, 134_248.7),
    (40, 200_000, 94_775.7),
    (400, 1_000, 27_509.6),
    (400, 20_000, 26_776.0),
    (400, 200_000, 23_394.5),
    (2_000, 1_000, 648.2),
    (2_000, 20_000, 691.0),
    (2_000, 200_000, 694.8),
];

/// Persist populations brought up (and only brought up) on their own,
/// each with the `(Cluster::new s, settle s)` measured on the tree before
/// linear bring-up where that was recorded (same box and build; 20 000
/// nodes were out of its reach — 3.2 GB of peer lists alone).
const BRING_UP_GRID: &[(u64, Option<(f64, f64)>)] = &[
    (40, None),
    (400, None),
    (2_000, Some((0.039, 0.183))),
    (8_000, Some((1.90, 4.70))),
    (20_000, None),
];

/// The population the bring-up heap gate scales from.
const BRING_UP_BASE: u64 = 2_000;

/// Headroom over proportional heap growth in the bring-up gate.
const BRING_UP_SLACK: f64 = 1.2;

struct BringUp {
    nodes: u64,
    new_secs: f64,
    settle_secs: f64,
    /// High-water mark of live heap over `Cluster::new` + `settle`, above
    /// what was live before them.
    peak_alloc_bytes: u64,
    /// `(new s, settle s)` before linear bring-up, where recorded.
    before: Option<(f64, f64)>,
}

struct CellResult {
    nodes: u64,
    ops: u64,
    ops_per_sec: f64,
    baseline_ops_per_sec: f64,
    setup_secs: f64,
    peak_alloc_bytes: u64,
}

fn baseline_for(nodes: u64, ops: u64) -> f64 {
    BASELINE
        .iter()
        .find(|&&(bn, bo, _)| bn == nodes && bo == ops)
        .map(|&(_, _, v)| v)
        .expect("baseline cell present")
}

fn config_for(nodes: u64) -> ClusterConfig {
    let soft_n = (nodes / 50).clamp(4, 16);
    ClusterConfig { soft_n, persist_n: nodes, ..ClusterConfig::default() }.ring_repair()
}

/// Brings a cluster of `nodes` persist nodes up and drops it.
fn bring_up(nodes: u64, before: Option<(f64, f64)>) -> BringUp {
    let live_at_start = LIVE.load(Ordering::Relaxed);
    PEAK.store(live_at_start, Ordering::Relaxed);
    let t0 = Instant::now();
    let mut cluster = Cluster::new(config_for(nodes), 0xE18_B000 ^ nodes);
    let new_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    cluster.settle();
    let settle_secs = t1.elapsed().as_secs_f64();
    let peak_alloc_bytes = (PEAK.load(Ordering::Relaxed) - live_at_start) as u64;
    BringUp { nodes, new_secs, settle_secs, peak_alloc_bytes, before }
}

/// One grid cell: build + settle a cluster of `nodes` persist nodes,
/// then serve `ops` alternating put/get operations from a pipelined
/// session pool. Identical to the driver the baseline grid was measured
/// with, except ring-biased repair peering (the PR's topology-aware
/// mode) is on.
fn run_cell(nodes: u64, ops: u64) -> CellResult {
    let setup = Instant::now();
    let mut cluster = Cluster::new(config_for(nodes), 0xE18_0000 ^ nodes ^ (ops << 16));
    cluster.settle();
    let setup_secs = setup.elapsed().as_secs_f64();
    let mut sessions: Vec<_> = (0..SESSIONS).map(|_| cluster.client()).collect();
    let mut workload = Workload::new(WorkloadKind::Uniform, 0x5CA1E ^ nodes);
    let mut issued = 0u64;
    let mut resolved = 0u64;
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let t0 = Instant::now();
    while resolved < ops {
        for s in &mut sessions {
            while issued < ops && s.in_flight() < DEPTH {
                if issued.is_multiple_of(2) {
                    let p = workload.next_put();
                    let _ = s.put(&mut cluster, p.key, p.value, p.attr, p.tag.as_deref());
                } else {
                    let _ = s.get(&mut cluster, workload.next_read_key());
                }
                issued += 1;
            }
        }
        cluster.pump(QUANTUM);
        for s in &mut sessions {
            resolved += s.drain(&mut cluster).len() as u64;
        }
    }
    let serve_secs = t0.elapsed().as_secs_f64();
    CellResult {
        nodes,
        ops,
        ops_per_sec: ops as f64 / serve_secs,
        baseline_ops_per_sec: baseline_for(nodes, ops),
        setup_secs,
        peak_alloc_bytes: PEAK.load(Ordering::Relaxed) as u64,
    }
}

fn write_summary(cells: &[CellResult], bring_ups: &[BringUp], smoke: bool) {
    let secs = |s: Option<f64>| s.map_or("null".to_owned(), |s| format!("{s:.3}"));
    let bring_up_entries: Vec<String> = bring_ups
        .iter()
        .map(|b| {
            format!(
                "    {{\"nodes\": {}, \"new_secs\": {:.4}, \"settle_secs\": {:.4}, \
                 \"peak_alloc_bytes\": {}, \"before_new_secs\": {}, \
                 \"before_settle_secs\": {}}}",
                b.nodes,
                b.new_secs,
                b.settle_secs,
                b.peak_alloc_bytes,
                secs(b.before.map(|(new, _)| new)),
                secs(b.before.map(|(_, settle)| settle)),
            )
        })
        .collect();
    let entries: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"nodes\": {}, \"ops\": {}, \"ops_per_sec\": {:.1}, \
                 \"baseline_ops_per_sec\": {:.1}, \"speedup\": {:.2}, \
                 \"setup_secs\": {:.3}, \"peak_alloc_bytes\": {}}}",
                c.nodes,
                c.ops,
                c.ops_per_sec,
                c.baseline_ops_per_sec,
                c.ops_per_sec / c.baseline_ops_per_sec,
                c.setup_secs,
                c.peak_alloc_bytes,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"e18_scale\",\n  \"gate\": {SPEEDUP_GATE},\n  \"smoke\": {smoke},\n  \
         \"rows\": [\n{}\n  ],\n  \"bring_up\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
        bring_up_entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("e18: could not write {path}: {e}");
    } else {
        println!("\nwrote machine-readable summary to BENCH_scale.json");
    }
}

fn experiment() -> Vec<CellResult> {
    let smoke = std::env::var_os("E18_SMOKE").is_some();
    let node_grid = if smoke { &NODE_GRID[..2] } else { NODE_GRID };
    let mut cells = Vec::new();
    table_header(
        "E18: scale grid — ops/sec vs the pre-optimisation baseline",
        &["nodes", "ops", "ops/sec", "base", "speedup", "setup s", "peak MiB"],
    );
    for &nodes in node_grid {
        for &ops in OP_GRID {
            let cell = run_cell(nodes, ops);
            table_row(&[
                n(cell.nodes),
                n(cell.ops),
                f(cell.ops_per_sec),
                f(cell.baseline_ops_per_sec),
                f(cell.ops_per_sec / cell.baseline_ops_per_sec),
                f(cell.setup_secs),
                f(cell.peak_alloc_bytes as f64 / (1024.0 * 1024.0)),
            ]);
            cells.push(cell);
        }
    }

    let bring_up_grid = if smoke { &BRING_UP_GRID[..4] } else { BRING_UP_GRID };
    table_header(
        "E18: bring-up alone — Cluster::new + first settle (before: per-node peer lists, \
         all-pairs detector sweep)",
        &["nodes", "new s", "settle s", "peak MiB", "before new s", "before settle s"],
    );
    let bring_ups: Vec<BringUp> =
        bring_up_grid.iter().map(|&(nodes, before)| bring_up(nodes, before)).collect();
    for b in &bring_ups {
        table_row(&[
            n(b.nodes),
            f(b.new_secs),
            f(b.settle_secs),
            f(b.peak_alloc_bytes as f64 / (1024.0 * 1024.0)),
            b.before.map_or("-".to_owned(), |(new, _)| f(new)),
            b.before.map_or("-".to_owned(), |(_, settle)| f(settle)),
        ]);
    }

    // The JSON lands before the gates so a failed gate still leaves the
    // measured grid behind for diagnosis.
    write_summary(&cells, &bring_ups, smoke);

    // Gate 0: bring-up heap is linear in the population. Bytes repeat
    // exactly for a seed, so this gate needs no idle machine.
    let heap = |nodes: u64| {
        bring_ups.iter().find(|b| b.nodes == nodes).expect("population brought up").peak_alloc_bytes
    };
    let (largest, _) = *bring_up_grid.last().expect("bring-up grid non-empty");
    let allowed = BRING_UP_SLACK * (largest / BRING_UP_BASE) as f64;
    assert!(
        heap(largest) as f64 <= allowed * heap(BRING_UP_BASE) as f64,
        "acceptance: bringing up {largest} nodes needs {} B, over {allowed}x the {} B of \
         {BRING_UP_BASE} nodes (super-linear bring-up)",
        heap(largest),
        heap(BRING_UP_BASE),
    );

    // Gate 1: sub-linear degradation in node count. At the heaviest op
    // count, growing the cluster R× may cost at most R× in throughput,
    // with 25% headroom for a loaded machine (an idle run measures
    // ~2.4x for the 10x pair and ~3.4x for the 5x pair; the pre-opt
    // tree's 34x fails regardless).
    let heavy = *OP_GRID.last().expect("op grid non-empty");
    for pair in node_grid.windows(2) {
        let (small, big) = (pair[0], pair[1]);
        let t_small = cells
            .iter()
            .find(|c| c.nodes == small && c.ops == heavy)
            .expect("cell ran")
            .ops_per_sec;
        let t_big =
            cells.iter().find(|c| c.nodes == big && c.ops == heavy).expect("cell ran").ops_per_sec;
        let node_ratio = big as f64 / small as f64;
        let slowdown = t_small / t_big;
        assert!(
            slowdown < node_ratio * 1.25,
            "acceptance: {small}->{big} nodes at {heavy} ops cost {slowdown:.1}x throughput \
             (super-linear; node ratio is {node_ratio:.0}x)",
        );
    }

    // Gate 2: the heaviest cell must beat the frozen baseline by the
    // issue's 5x floor (full grid only; smoke skips the 2000-node row).
    if !smoke {
        let cell =
            cells.iter().find(|c| c.nodes == 2_000 && c.ops == heavy).expect("heaviest cell ran");
        let speedup = cell.ops_per_sec / cell.baseline_ops_per_sec;
        assert!(
            speedup >= SPEEDUP_GATE,
            "acceptance: 2000x{heavy} runs {:.1} ops/sec, only {speedup:.2}x the frozen \
             baseline {:.1} (gate {SPEEDUP_GATE}x)",
            cell.ops_per_sec,
            cell.baseline_ops_per_sec,
        );

        // Gate 3: every cell holds the floor against its own frozen
        // baseline (full grid only: the baselines were measured on an idle
        // machine, which a shared CI runner's smoke pass is not).
        for c in &cells {
            let ratio = c.ops_per_sec / c.baseline_ops_per_sec;
            assert!(
                ratio >= CELL_FLOOR,
                "acceptance: {}x{} runs {:.1} ops/sec, {ratio:.2}x the frozen baseline {:.1} \
                 (floor {CELL_FLOOR}x)",
                c.nodes,
                c.ops,
                c.ops_per_sec,
                c.baseline_ops_per_sec,
            );
        }
    }

    println!(
        "\nshape check: interned keys, zero-copy values, the epoch-gated liveness \
         sweep and O(1) metrics turn node count from a per-tick cost into a \
         setup cost — throughput now degrades sub-linearly in cluster size \
         where the String-keyed tree degraded super-linearly."
    );
    cells
}

fn bench(c: &mut Criterion) {
    experiment();
    let mut g = c.benchmark_group("e18");
    g.sample_size(10);
    // The scaling kernel: one small grid cell end to end (setup + serve).
    g.bench_function("cell_40x1k", |b| {
        b.iter(|| run_cell(40, 1_000).ops_per_sec);
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
