//! The four closed-loop workloads: a fixed number of operations, made
//! from the seed before the clock starts, driven through `sessions`
//! client sessions that each keep up to `depth` operations in flight.
//! Every result is checked against what the generator wrote.

use crate::alloc;
use crate::outcome::{AfterRun, HostStats, Pass, SimStats, DELETE, GET, MGET, MPUT, PUT, SCAN};
use crate::spans::{Recorder, NO_REQ};
use dd_core::{
    Client, Cluster, ClusterConfig, Completion, Key, OpError, Placement, StoredTuple, Tag,
    TupleSpec, Workload, WorkloadKind,
};
use dd_sim::rng::{fnv1a, mix, splitmix64};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Items of every `multi_put`.
const BATCH: usize = 8;

/// Most acknowledged keys whose replicas are counted after the run.
const DURABILITY_SAMPLE: usize = 10_000;

/// Largest persist layer `Cluster::repair_sweep` is run on: it opens a
/// digest exchange between every pair of nodes, four million of them on
/// the 2000-node workload.
const SWEEP_MAX_NODES: u64 = 100;

/// Ticks of the clientless pumps that price background work.
pub const IDLE_TICKS: u64 = 5_000;

/// Relative op-kind weights, in `outcome::KIND_NAMES` order.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub weights: [u32; 6],
    /// Walk the weights in order (1 put then 19 gets, again and again)
    /// where the issue fixes the sequence; draw from the seed otherwise.
    pub cyclic: bool,
}

impl Mix {
    const fn cycle(puts: u32, gets: u32) -> Self {
        Mix { weights: [puts, gets, 0, 0, 0, 0], cyclic: true }
    }

    fn pick(&self, position: u64, rng: &mut u64) -> usize {
        let total: u64 = self.weights.iter().map(|&w| u64::from(w)).sum();
        let mut roll = if self.cyclic { position % total } else { splitmix64(rng) % total };
        for (kind, &w) in self.weights.iter().enumerate() {
            if roll < u64::from(w) {
                return kind;
            }
            roll -= u64::from(w);
        }
        unreachable!("roll is below the weight total")
    }
}

#[derive(Debug, Clone, Copy)]
pub struct LoopSpec {
    pub soft_n: u64,
    pub persist_n: u64,
    pub placement: Placement,
    pub kind: WorkloadKind,
    pub preload_mix: Mix,
    pub preload_ops: u64,
    pub mix: Mix,
    pub ops: u64,
    pub sessions: usize,
    pub depth: usize,
    /// Ticks pumped between harvests: the resolution of every latency.
    pub harvest_every: u64,
}

const RW_SMALL: LoopSpec = LoopSpec {
    soft_n: 4,
    persist_n: 40,
    placement: Placement::RangePartition,
    kind: WorkloadKind::Uniform,
    preload_mix: Mix::cycle(1, 0),
    preload_ops: 0,
    mix: Mix::cycle(1, 1),
    ops: 100_000,
    sessions: 8,
    depth: 32,
    harvest_every: 25,
};

/// The issue's op counts, all divided by the one scale factor 4 so that a
/// ten-second run fits several repeats (see the README).
pub fn spec(workload: &str) -> Option<LoopSpec> {
    match workload {
        "rw-small" => Some(RW_SMALL),
        "rw-large" => Some(LoopSpec { soft_n: 16, persist_n: 2_000, ops: 25_000, ..RW_SMALL }),
        "read-small" => Some(LoopSpec {
            preload_ops: 5_000,
            mix: Mix::cycle(1, 19),
            ops: 300_000,
            harvest_every: 1,
            ..RW_SMALL
        }),
        "feed-fine" => Some(LoopSpec {
            soft_n: 4,
            persist_n: 36,
            placement: Placement::TagCollocation,
            kind: WorkloadKind::SocialFeed { users: 64 },
            preload_mix: Mix { weights: [0, 0, 0, 0, 1, 0], cyclic: true },
            preload_ops: 500,
            mix: Mix { weights: [2, 8, 1, 1, 1, 4], cyclic: false },
            ops: 10_000,
            sessions: 4,
            depth: 8,
            harvest_every: 1,
        }),
        _ => None,
    }
}

impl LoopSpec {
    pub fn scaled_down(mut self, by: u64) -> Self {
        self.preload_ops = self.preload_ops.div_ceil(by);
        self.ops = self.ops.div_ceil(by);
        self
    }

    fn config(&self) -> ClusterConfig {
        ClusterConfig {
            soft_n: self.soft_n,
            persist_n: self.persist_n,
            replication: 3,
            placement: self.placement,
            ..ClusterConfig::default()
        }
        .ring_repair()
    }
}

enum Op {
    Put { key: u32, value: Vec<u8>, attr: Option<f64>, tag: Option<u32> },
    Get { key: u32 },
    Delete { key: u32 },
    Scan { lo: f64, hi: f64 },
    MultiPut { tag: Option<u32>, items: Vec<(u32, Vec<u8>, Option<f64>)> },
    MultiGet { tag: u32 },
}

/// What the generator wrote under one key, and what the store has
/// acknowledged for it so far.
#[derive(Debug, Clone, Default)]
struct KeyState {
    value_hash: u64,
    writes_submitted: u64,
    acked_version: u64,
    put_acked: bool,
    delete_submitted: bool,
}

/// Everything made from the seed: the operations, and the tables the
/// result check reads.
#[derive(Default)]
struct Inputs {
    keys: Vec<String>,
    key_ids: HashMap<String, u32>,
    ids_by_hash: HashMap<u64, u32>,
    tags: Vec<String>,
    tag_ids: HashMap<String, u32>,
    tag_hashes: Vec<u64>,
    state: Vec<KeyState>,
    ops: Vec<Op>,
}

impl Inputs {
    fn key_id(&mut self, key: String) -> u32 {
        if let Some(&id) = self.key_ids.get(&key) {
            return id;
        }
        let id = self.keys.len() as u32;
        self.ids_by_hash.insert(Key::new(key.as_str()).hash(), id);
        self.key_ids.insert(key.clone(), id);
        self.keys.push(key);
        self.state.push(KeyState::default());
        id
    }

    fn tag_id(&mut self, tag: String) -> u32 {
        if let Some(&id) = self.tag_ids.get(&tag) {
            return id;
        }
        let id = self.tags.len() as u32;
        self.tag_hashes.push(Tag::new(tag.as_str()).hash());
        self.tag_ids.insert(tag.clone(), id);
        self.tags.push(tag);
        id
    }

    fn put(&mut self, op: dd_core::workload::PutOp) -> (u32, Vec<u8>, Option<f64>, Option<u32>) {
        let key = self.key_id(op.key);
        self.state[key as usize].value_hash = fnv1a(&op.value);
        let tag = op.tag.map(|t| self.tag_id(t));
        (key, op.value, op.attr, tag)
    }
}

/// Makes the preload operations followed by the timed ones.
fn generate(spec: &LoopSpec, seed: u64) -> Inputs {
    let mut workload = Workload::new(spec.kind, mix(seed, 0x10AD));
    let mut rng = mix(seed, 0x0B1C);
    let mut inputs = Inputs {
        ops: Vec::with_capacity((spec.preload_ops + spec.ops) as usize),
        ..Inputs::default()
    };
    for (mix, n) in [(spec.preload_mix, spec.preload_ops), (spec.mix, spec.ops)] {
        for i in 0..n {
            let op = match mix.pick(i, &mut rng) {
                PUT => {
                    let (key, value, attr, tag) = inputs.put(workload.next_put());
                    Op::Put { key, value, attr, tag }
                }
                GET => Op::Get { key: inputs.key_id(workload.next_read_key()) },
                DELETE => Op::Delete { key: inputs.key_id(workload.next_read_key()) },
                SCAN => {
                    let (lo, hi) = workload.next_scan_range();
                    Op::Scan { lo, hi }
                }
                MPUT => {
                    let batch = workload.next_multi_put(BATCH);
                    let tag = batch.tag.map(|t| inputs.tag_id(t));
                    let items = batch
                        .items
                        .into_iter()
                        .map(|item| {
                            let (key, value, attr, _) = inputs.put(item);
                            (key, value, attr)
                        })
                        .collect();
                    Op::MultiPut { tag, items }
                }
                MGET => Op::MultiGet { tag: inputs.tag_id(workload.next_read_tag()) },
                _ => unreachable!("six op kinds"),
            };
            inputs.ops.push(op);
        }
    }
    inputs
}

/// One submitted operation, found again by its `req` at harvest.
#[derive(Debug, Clone, Copy)]
struct Issued {
    kind: usize,
    /// Key of a put/get/delete, tag of a multi_get.
    subject: u32,
    tick: u64,
    /// Latest version acknowledged for the key when a get was submitted.
    floor: u64,
    range: (f64, f64),
}

struct Driver<'a> {
    spec: &'a LoopSpec,
    inputs: Inputs,
    issued: Vec<Issued>,
    first_req: Option<u64>,
    stats: SimStats,
    /// Payload bytes submitted, preload included.
    user_bytes: u64,
    rec: Option<Recorder>,
}

impl Driver<'_> {
    /// The harness's side of a submission: what the oracle must know
    /// about `op`, and the record its completion is matched with.
    fn note(&mut self, op: &Op, tick: u64) -> Issued {
        let state = &mut self.inputs.state;
        let mut it = Issued { kind: SCAN, subject: u32::MAX, tick, floor: 0, range: (0.0, 0.0) };
        match op {
            Op::Put { key, value, .. } => {
                (it.kind, it.subject) = (PUT, *key);
                state[*key as usize].writes_submitted += 1;
                self.user_bytes += value.len() as u64;
            }
            Op::Get { key } => {
                (it.kind, it.subject) = (GET, *key);
                it.floor = state[*key as usize].acked_version;
            }
            Op::Delete { key } => {
                (it.kind, it.subject) = (DELETE, *key);
                state[*key as usize].writes_submitted += 1;
                state[*key as usize].delete_submitted = true;
            }
            Op::Scan { lo, hi } => it.range = (*lo, *hi),
            Op::MultiPut { items, .. } => {
                it.kind = MPUT;
                for (key, value, _) in items {
                    state[*key as usize].writes_submitted += 1;
                    self.user_bytes += value.len() as u64;
                }
            }
            Op::MultiGet { tag } => (it.kind, it.subject) = (MGET, *tag),
        }
        it
    }

    fn submit(&mut self, cluster: &mut Cluster, session: &mut Client, op: Op) {
        let tick = cluster.sim.now().0;
        let record = self.note(&op, tick);
        if let Some(r) = &mut self.rec {
            r.open("core.client.submit", tick, NO_REQ);
        }
        let key = |k: u32| self.inputs.keys[k as usize].as_str();
        let tag = |t: u32| self.inputs.tags[t as usize].as_str();
        let req = match op {
            Op::Put { key: k, value, attr, tag: t } => {
                session.put(cluster, key(k), value, attr, t.map(tag)).req()
            }
            Op::Get { key: k } => session.get(cluster, key(k)).req(),
            Op::Delete { key: k } => session.delete(cluster, key(k)).req(),
            Op::Scan { lo, hi } => session.scan(cluster, lo, hi).req(),
            Op::MultiPut { tag: t, items } => {
                let batch = items
                    .into_iter()
                    .map(|(k, value, attr)| TupleSpec::new(key(k), value, attr, t.map(tag)));
                session.multi_put(cluster, batch).req()
            }
            Op::MultiGet { tag: t } => session.multi_get(cluster, tag(t)).req(),
        };
        if let Some(r) = &mut self.rec {
            r.set_req(req);
            r.close(tick);
        }
        // `req` ids are handed out one by one in submission order, so the
        // record of a request sits at its distance from the first one.
        let first = *self.first_req.get_or_insert(req);
        assert_eq!(req - first, self.issued.len() as u64, "req ids follow submission order");
        self.issued.push(record);
        self.stats.attempted += 1;
    }

    fn ack(&mut self, key: u32, version: u64, put: bool) {
        let state = &mut self.inputs.state[key as usize];
        state.acked_version = state.acked_version.max(version);
        state.put_acked |= put;
    }

    /// A returned tuple must be one the generator wrote: known key, the
    /// value written under it, a version no later than the writes
    /// submitted for it, and never a tombstone.
    fn check(&mut self, tuple: &StoredTuple, expect_key: Option<u32>, expect_tag: Option<u32>) {
        self.stats.checked_results += 1;
        // A get names its key; a scan or a feed read is looked up by hash.
        let id = expect_key.or_else(|| self.inputs.ids_by_hash.get(&tuple.key_hash).copied());
        let sound = id.is_some_and(|id| {
            let state = &self.inputs.state[id as usize];
            tuple.key.as_str() == self.inputs.keys[id as usize]
                && fnv1a(&tuple.value) == state.value_hash
                && (1..=state.writes_submitted).contains(&tuple.version.0)
                && !tuple.deleted
                && expect_tag
                    .is_none_or(|t| tuple.tag_hash == Some(self.inputs.tag_hashes[t as usize]))
        });
        if !sound {
            self.stats.safety_violations += 1;
        }
    }

    fn account(&mut self, now: u64, req: u64, completion: Completion) {
        let first = self.first_req.expect("a harvested op was submitted");
        let it = self.issued[(req - first) as usize];
        match completion.err() {
            None => {
                self.stats.ok += 1;
                self.stats.record_latency(it.kind, now - it.tick);
            }
            Some(OpError::PartialResult { .. }) => self.stats.partials += 1,
            Some(OpError::NoLiveEntry) => self.stats.no_live_entry += 1,
            Some(OpError::Timeout { .. } | OpError::AlreadyHarvested) => self.stats.timeouts += 1,
        }
        match completion {
            Completion::Put(Ok(status)) => self.ack(it.subject, status.version.0, true),
            Completion::Delete(Ok(status)) => self.ack(it.subject, status.version.0, false),
            Completion::Get(Ok(Some(tuple))) => {
                self.stats.found_reads += 1;
                if tuple.version.0 < it.floor {
                    self.stats.stale_reads += 1;
                }
                self.check(&tuple, Some(it.subject), None);
            }
            Completion::Scan(Ok(items)) => {
                for tuple in &items {
                    self.check(tuple, None, None);
                    if !tuple.attr.is_some_and(|a| it.range.0 <= a && a <= it.range.1) {
                        self.stats.safety_violations += 1;
                    }
                }
            }
            Completion::MultiPut(Ok(status)) => {
                for (key_hash, version) in status.versions {
                    match self.inputs.ids_by_hash.get(&key_hash).copied() {
                        Some(key) => self.ack(key, version.0, true),
                        None => self.stats.safety_violations += 1,
                    }
                }
            }
            Completion::MultiGet(Ok(feed)) => {
                for tuple in &feed.items {
                    self.check(tuple, None, Some(it.subject));
                }
            }
            _ => {}
        }
    }

    /// Runs `ops` to completion; returns the wall-clock second at which
    /// each tenth of them had resolved.
    fn drive(
        &mut self,
        cluster: &mut Cluster,
        sessions: &mut [Client],
        ops: &mut impl Iterator<Item = Op>,
        n: u64,
    ) -> Vec<f64> {
        let started = Instant::now();
        let mut tenths = Vec::with_capacity(10);
        let (mut submitted, mut resolved) = (0, 0);
        while resolved < n {
            for session in sessions.iter_mut() {
                while submitted < n && session.in_flight() < self.spec.depth {
                    let op = ops.next().expect("the generator made every op");
                    self.submit(cluster, session, op);
                    submitted += 1;
                }
            }
            let tick = cluster.sim.now().0;
            if let Some(r) = &mut self.rec {
                r.open("core.cluster.pump", tick, NO_REQ);
            }
            cluster.pump(self.spec.harvest_every);
            let now = cluster.sim.now().0;
            if let Some(r) = &mut self.rec {
                r.close(now);
            }
            for session in sessions.iter_mut() {
                self.stats.probed += session.in_flight() as u64;
                self.stats.drains += 1;
                if let Some(r) = &mut self.rec {
                    r.open("core.client.drain", now, NO_REQ);
                }
                let done = session.drain(cluster);
                if let Some(r) = &mut self.rec {
                    r.close(now);
                }
                resolved += done.len() as u64;
                for (req, completion) in done {
                    self.account(now, req, completion);
                }
            }
            while tenths.len() < 10 && resolved * 10 >= n * (tenths.len() as u64 + 1) {
                tenths.push(started.elapsed().as_secs_f64());
            }
        }
        tenths
    }

    /// Acknowledged, never-deleted keys none of whose replicas is alive
    /// with the latest version, over a seeded sample of the acked keys:
    /// `(checked, lost)`.
    fn count_lost_writes(&self, cluster: &Cluster, seed: u64) -> (u64, u64) {
        let acked: Vec<u32> = (0..self.inputs.state.len() as u32)
            .filter(|&k| {
                let s = &self.inputs.state[k as usize];
                s.put_acked && !s.delete_submitted
            })
            .collect();
        let stride = acked.len().div_ceil(DURABILITY_SAMPLE).max(1);
        let offset = (mix(seed, 0xD0AB) % stride as u64) as usize;
        let sample = acked.iter().skip(offset).step_by(stride);
        let lost = sample
            .clone()
            .filter(|&&key| {
                cluster.replica_count(&Key::new(self.inputs.keys[key as usize].as_str())) == 0
            })
            .count();
        (sample.count() as u64, lost as u64)
    }

    /// Lets dissemination finish, runs one full anti-entropy round where
    /// the cluster is small enough for one, and looks at what the run
    /// left behind. A traced pass also prices a clientless pump.
    fn inspect(&self, cluster: &mut Cluster, seed: u64, traced: bool) -> AfterRun {
        let mut after = AfterRun::default();
        cluster.settle();
        if self.spec.persist_n <= SWEEP_MAX_NODES {
            let started = Instant::now();
            cluster.repair_sweep();
            cluster.settle();
            after.repair_sweep_ms = started.elapsed().as_secs_f64() * 1e3;
        }
        (after.durability_checked, after.lost_writes) = self.count_lost_writes(cluster, seed);
        let persist = cluster
            .persist_ids()
            .iter()
            .filter_map(|&id| cluster.sim.node(id).and_then(|n| n.as_persist()));
        let store_bytes: usize = persist.clone().map(|p| p.store_bytes()).sum();
        after.store_bytes_per_user_byte = store_bytes as f64 / self.user_bytes as f64;
        let fullest = persist.max_by_key(|p| p.store.len()).expect("a persist node exists");
        after.digest_us = time_us(|| drop(black_box(fullest.digest())));
        after.shared_summary_us =
            time_us(|| drop(black_box(fullest.shared_summary(&fullest.sieve))));
        if traced {
            after.idle_loaded_us_per_tick = idle_us_per_tick(cluster);
        }
        after
    }
}

/// Mean microseconds of `f` over enough calls to fill about a millisecond.
fn time_us(mut f: impl FnMut()) -> f64 {
    let mut calls = 0u32;
    let started = Instant::now();
    while calls < 3 || (started.elapsed().as_micros() < 1_000 && calls < 10_000) {
        f();
        calls += 1;
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

/// Wall microseconds per tick of a clientless `pump`.
pub fn idle_us_per_tick(cluster: &mut Cluster) -> f64 {
    let started = Instant::now();
    cluster.pump(IDLE_TICKS);
    started.elapsed().as_secs_f64() * 1e6 / IDLE_TICKS as f64
}

/// A settled cluster of the workload's shape.
pub fn fresh_cluster(spec: &LoopSpec, seed: u64, rec: &mut Option<Recorder>) -> Cluster {
    if let Some(r) = rec {
        r.open("core.cluster.new", 0, NO_REQ);
    }
    let mut cluster = Cluster::new(spec.config(), seed);
    if let Some(r) = rec {
        r.close(0);
        r.open("core.cluster.settle", 0, NO_REQ);
    }
    cluster.settle();
    if let Some(r) = rec {
        r.close(cluster.sim.now().0);
    }
    cluster
}

/// One pass: generate, set up (untimed: build, settle, preload) and run
/// the timed section; `inspect` then looks at the state left behind,
/// which repeats exactly and so is wanted once per run.
pub fn run(spec: &LoopSpec, seed: u64, traced: bool, inspect: bool) -> Pass {
    let mut host = HostStats::default();
    let mut rec = traced.then(Recorder::new);

    let gen_started = Instant::now();
    if let Some(r) = &mut rec {
        r.open("core.workload.gen", 0, NO_REQ);
    }
    let mut inputs = generate(spec, seed);
    if let Some(r) = &mut rec {
        r.close(0);
    }
    let gen_s = gen_started.elapsed().as_secs_f64();
    host.gen_ns_per_op = gen_s * 1e9 / (spec.preload_ops + spec.ops) as f64;
    let mut ops = std::mem::take(&mut inputs.ops).into_iter();

    let setup_started = Instant::now();
    let mut cluster = fresh_cluster(spec, seed, &mut rec);
    let mut sessions: Vec<Client> = (0..spec.sessions).map(|_| cluster.client()).collect();
    let mut driver = Driver {
        spec,
        inputs,
        issued: Vec::with_capacity((spec.preload_ops + spec.ops) as usize),
        first_req: None,
        stats: SimStats::default(),
        user_bytes: 0,
        rec: None,
    };
    driver.drive(&mut cluster, &mut sessions, &mut ops, spec.preload_ops);
    host.setup_s = setup_started.elapsed().as_secs_f64();

    // The preload fed the oracle; the counts start over for the timed ops.
    driver.stats = SimStats::default();
    driver.rec = rec;
    let counters_before = cluster.sim.metrics().counters().collect();
    let first_tick = cluster.sim.now().0;
    alloc::reset_peak();
    let alloc_before = alloc::snapshot();
    if let Some(r) = &mut driver.rec {
        r.open("bench.timed_section", first_tick, NO_REQ);
    }
    let timed_started = Instant::now();
    let tenths = driver.drive(&mut cluster, &mut sessions, &mut ops, spec.ops);
    host.timed_s = timed_started.elapsed().as_secs_f64();
    if let Some(r) = &mut driver.rec {
        r.close(cluster.sim.now().0);
    }
    let alloc_after = alloc::snapshot();
    host.peak_alloc_bytes = alloc::peak();
    host.allocs = alloc_after.allocs - alloc_before.allocs;
    host.alloc_bytes = alloc_after.bytes - alloc_before.bytes;
    let last_tenth_s = tenths[9] - tenths[8];
    host.late_early_rate_ratio = if last_tenth_s > 0.0 { tenths[0] / last_tenth_s } else { 0.0 };
    driver.stats.add_counter_deltas(&counters_before, cluster.sim.metrics());
    driver.stats.final_tick = cluster.sim.now().0;
    driver.stats.ticks = driver.stats.final_tick - first_tick;
    driver.stats.net_sent = driver.stats.counter("net.sent");

    let after = inspect.then(|| driver.inspect(&mut cluster, seed, traced));
    host.keep_spans(driver.rec.take());
    Pass { sim: driver.stats, host, after }
}
