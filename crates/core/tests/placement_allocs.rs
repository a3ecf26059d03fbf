//! Allocation regression for compiled placement: evaluating a
//! [`SieveSpec`] allocates nothing, a write's cost on the heap does not
//! grow with the persist population, and bringing a cluster up costs heap
//! in proportion to it.
//!
//! Its own test binary because it installs a counting global allocator
//! (the shape `benches/e18_scale.rs` uses). Counts are per thread, so the
//! harness running tests side by side does not blur them.

use dd_core::{Cluster, ClusterConfig, SieveSpec};
use dd_sieve::ItemMeta;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct CountingAlloc;

thread_local! {
    /// `(blocks, bytes)` this thread has allocated.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

// SAFETY: delegates allocation verbatim to `System`; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching
// it never allocates and never re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no counter left; it is not ours.
        let _ = ALLOCATED.try_with(|c| {
            let (blocks, bytes) = c.get();
            c.set((blocks + 1, bytes + layout.size() as u64));
        });
        // SAFETY: same layout, passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) };
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `(blocks, bytes)` allocated by this thread while `f` ran.
fn allocated_by(f: impl FnOnce()) -> (u64, u64) {
    let before = ALLOCATED.with(Cell::get);
    f();
    let after = ALLOCATED.with(Cell::get);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn evaluating_a_sieve_spec_never_allocates() {
    let specs = [
        SieveSpec::Range { index: 38, of: 40, r: 3 },
        SieveSpec::Uniform { salt: 7, r: 3, n: 40 },
        SieveSpec::Tag { slot: 5, slots: 36, r: 3 },
        SieveSpec::Histogram { edges: (1..40).map(f64::from).collect(), index: 38, r: 3 },
    ];
    for spec in &specs {
        let used = allocated_by(|| {
            for i in 0..10_000u64 {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let bare = ItemMeta::from_key_hash(h);
                let full = ItemMeta { key_hash: h, attr: Some((i % 45) as f64), tag_hash: Some(h) };
                black_box(spec.accepts(black_box(&bare)));
                black_box(spec.accepts(black_box(&full)));
            }
            black_box((spec.class_id(), spec.grain()));
        });
        assert_eq!(used, (0, 0), "{spec:?} allocated");
    }
}

#[test]
fn a_put_does_not_pay_per_persist_node() {
    let config =
        ClusterConfig { soft_n: 16, persist_n: 2_000, ..ClusterConfig::default() }.ring_repair();
    let mut cluster = Cluster::new(config, 2011);
    cluster.settle();
    let mut client = cluster.client();
    // What 25 ticks cost with no client at all — 2000 nodes' repair
    // timers and the failure-detector sweeps either side of a pump — is
    // not the put's; the run is seeded, so the two spans compare exactly.
    let (idle_blocks, _) = allocated_by(|| cluster.pump(25));
    let (blocks, bytes) = allocated_by(|| {
        let put = client.put(&mut cluster, "user:42", vec![7; 64], None, None);
        cluster.pump(25);
        let status = client.poll(&mut cluster, &put).expect("resolved in one quantum");
        assert!(status.is_ok(), "{status:?}");
    });
    // Asking each of 2000 sieves built two vectors per sieve: 4000 blocks.
    let put_blocks = blocks.saturating_sub(idle_blocks);
    assert!(
        put_blocks < 64,
        "one put allocated {put_blocks} blocks over the idle {idle_blocks} ({bytes} B in all)"
    );
}

#[test]
fn bring_up_allocates_in_proportion_to_the_population() {
    let bring_up_bytes = |persist_n: u64| {
        let config =
            ClusterConfig { soft_n: 16, persist_n, ..ClusterConfig::default() }.ring_repair();
        let (_, bytes) = allocated_by(|| {
            let mut cluster = Cluster::new(config, 2011);
            cluster.settle();
            black_box(&cluster);
        });
        bytes
    };
    // Linear is 2×; a peer list (or a detector ledger row) per node is 4×.
    let (small, large) = (bring_up_bytes(1_000), bring_up_bytes(2_000));
    assert!(
        large as f64 <= 2.5 * small as f64,
        "bring-up allocated {small} B at 1000 persist nodes and {large} B at 2000"
    );
}
