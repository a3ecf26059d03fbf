//! Property-based tests for kernel invariants: virtual time never runs
//! backwards, replay is deterministic, churn schedules are well-formed,
//! the node table and the metric names behave like the ordered maps they
//! replace.

use dd_sim::churn::{ChurnEvent, ChurnModel, ChurnSchedule};
use dd_sim::metrics::{quantiles_of, Summary, Window};
use dd_sim::{Ctx, Duration, Metrics, NodeId, Process, Sim, SimConfig, Time, TimerTag};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Test process: every node relays a decrementing counter to a
/// pseudo-random neighbour and records the time of each delivery.
struct Relay {
    n: u64,
    times: Vec<u64>,
}

impl Process for Relay {
    type Msg = u32;
    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
        self.times.push(ctx.now().0);
        if msg > 0 {
            use rand::Rng;
            let next = NodeId(ctx.rng().gen_range(0..self.n));
            ctx.send(next, msg - 1);
        }
    }
}

/// Test process for the node-table model: keeps a timer armed under its
/// own incarnation's tag and pings a pseudo-random id on every firing, so
/// steps deliver to live, dead, removed and never-added ids alike.
struct Member {
    incarnation: u32,
    span: u64,
}

impl Process for Member {
    type Msg = ();
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        ctx.set_timer(Duration(1), TimerTag(self.incarnation));
    }
    fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, tag: TimerTag) {
        assert_eq!(tag, TimerTag(self.incarnation), "a timer fired on the wrong incarnation");
        use rand::Rng;
        let to = NodeId(ctx.rng().gen_range(0..self.span));
        ctx.send(to, ());
        ctx.set_timer(Duration(1 + u64::from(self.incarnation % 3)), tag);
    }
    fn on_up(&mut self, ctx: &mut Ctx<'_, ()>) {
        ctx.set_timer(Duration(1), TimerTag(self.incarnation));
    }
}

/// Every observable of the node table against the model (`id → alive`).
fn assert_table_matches(sim: &mut Sim<Member>, model: &BTreeMap<NodeId, bool>, span: u64) {
    assert_eq!(sim.len(), model.len());
    assert_eq!(sim.is_empty(), model.is_empty());
    assert_eq!(sim.ids().collect::<Vec<_>>(), model.keys().copied().collect::<Vec<_>>());
    let alive: Vec<NodeId> = model.iter().filter(|(_, &up)| up).map(|(&id, _)| id).collect();
    assert_eq!(sim.alive_ids().collect::<Vec<_>>(), alive);
    assert_eq!(sim.alive_count(), alive.len());
    for id in (0..span + 2).map(NodeId) {
        let hosted = model.contains_key(&id);
        assert_eq!(sim.is_alive(id), model.get(&id) == Some(&true), "is_alive({id:?})");
        assert_eq!(sim.node(id).is_some(), hosted, "node({id:?})");
        assert_eq!(sim.node_mut(id).is_some(), hosted, "node_mut({id:?})");
    }
}

/// Metric names whose equal texts sit at two or more addresses: the
/// literal, heap copies, and a prefix slice sharing an address with a
/// longer name.
fn name_pool() -> &'static [&'static str] {
    static POOL: OnceLock<Vec<&'static str>> = OnceLock::new();
    POOL.get_or_init(|| {
        let leak = |text: &str| -> &'static str { Box::leak(text.to_owned().into_boxed_str()) };
        let sent = leak("net.sent");
        let pool = vec![
            "net.sent",
            sent,
            leak("net.sent"),
            &sent[..3],
            "net",
            "lat",
            leak("lat"),
            "op.contacts",
            leak("op.contacts"),
        ];
        assert_ne!(pool[0].as_ptr(), pool[1].as_ptr(), "copies must live at new addresses");
        assert_eq!(pool[1].as_ptr(), pool[3].as_ptr(), "the prefix shares its name's address");
        pool
    })
}

/// Text-keyed model of one [`Metrics`] sink. Values are small integers,
/// so every sum is exact in whatever order it is taken.
#[derive(Clone, Default)]
struct MetricsModel {
    counters: BTreeMap<String, u64>,
    series: BTreeMap<String, Vec<f64>>,
    /// Open window per series: count, sum, max.
    windows: BTreeMap<String, (u64, f64, f64)>,
}

impl MetricsModel {
    fn observe(&mut self, name: &str, v: f64) {
        self.series.entry(name.to_owned()).or_default().push(v);
        let w = self.windows.entry(name.to_owned()).or_insert((0, 0.0, f64::NEG_INFINITY));
        *w = (w.0 + 1, w.1 + v, w.2.max(v));
    }

    fn take_window(&mut self, name: &str) -> Window {
        match self.windows.get_mut(name) {
            Some(w) => {
                let (n, sum, max) = std::mem::replace(w, (0, 0.0, f64::NEG_INFINITY));
                Window { n, sum, max: if n == 0 { 0.0 } else { max } }
            }
            None => Window::default(),
        }
    }

    fn merge(&mut self, other: &MetricsModel) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
        for (name, xs) in &other.series {
            self.series.entry(name.clone()).or_default().extend(xs);
            let theirs = other.windows[name];
            let w = self.windows.entry(name.clone()).or_insert((0, 0.0, f64::NEG_INFINITY));
            *w = (w.0 + theirs.0, w.1 + theirs.1, w.2.max(theirs.2));
        }
    }

    fn longest_series(&self) -> usize {
        self.series.values().map(Vec::len).max().unwrap_or(0)
    }
}

/// Every text-keyed reader of `m` against the model, each asked with a
/// key that is not `'static`.
fn assert_metrics_match(m: &Metrics, model: &MetricsModel) {
    let counters: Vec<(String, u64)> = m.counters().map(|(k, v)| (k.to_owned(), v)).collect();
    let expected: Vec<(String, u64)> =
        model.counters.iter().map(|(k, &v)| (k.clone(), v)).collect();
    assert_eq!(counters, expected, "counters() in name order");
    let ps = [0.0, 0.5, 0.99, 1.0];
    for text in name_pool().iter().copied().chain(["absent"]) {
        let key = String::from(text);
        assert_eq!(m.counter(&key), model.counters.get(text).copied().unwrap_or(0), "{text}");
        let xs = model.series.get(text).map_or(&[][..], Vec::as_slice);
        assert_eq!(m.series(&key), xs, "series({text})");
        assert_eq!(m.summary(&key), Summary::of(xs), "summary({text})");
        assert_eq!(m.quantiles(&key, &ps), quantiles_of(xs, &ps), "quantiles({text})");
        assert_eq!(m.reservoir(&key).is_some(), model.series.contains_key(text), "{text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The dense node table answers exactly like an ordered `id → alive`
    /// map through random adds (fresh and duplicate), removals, re-adds,
    /// kills, revivals and steps — and a removed node's timers never fire
    /// on the node re-added under its id (`Member` asserts its own tag).
    #[test]
    fn node_table_matches_an_ordered_map(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..6, 0u64..24), 1..160),
    ) {
        const SPAN: u64 = 24;
        let mut sim: Sim<Member> = Sim::new(SimConfig::default().seed(seed));
        let mut model: BTreeMap<NodeId, bool> = BTreeMap::new();
        let mut incarnations = 0u32;
        for (op, raw) in ops {
            let id = NodeId(raw);
            match op {
                0 | 1 => {
                    incarnations += 1;
                    let fresh = !model.contains_key(&id);
                    let added = sim.add_node(id, Member { incarnation: incarnations, span: SPAN });
                    prop_assert_eq!(added, fresh, "add_node({:?})", id);
                    model.entry(id).or_insert(true);
                }
                2 => {
                    prop_assert_eq!(sim.remove(id).is_some(), model.remove(&id).is_some());
                }
                3 | 4 => {
                    let up = op == 4;
                    if up { sim.revive(id) } else { sim.kill(id) }
                    // Liveness moves when the queued event runs; run the
                    // current instant so the model can follow.
                    sim.run_until(sim.now());
                    if let Some(alive) = model.get_mut(&id) {
                        *alive = up;
                    }
                }
                _ => {
                    sim.step();
                }
            }
            assert_table_matches(&mut sim, &model, SPAN);
        }
    }

    /// Interned metric names behave like a text-keyed map: equal text at
    /// different addresses (and a prefix sharing an address with a longer
    /// name) is one counter or series, through recording, windows, merges
    /// in both directions and resets.
    #[test]
    fn metric_names_intern_by_text(
        ops in prop::collection::vec((0u8..8, any::<bool>(), 0usize..9, 0u64..100), 1..120),
    ) {
        let pool = name_pool();
        let mut sinks = [Metrics::new(), Metrics::new()];
        let mut models = [MetricsModel::default(), MetricsModel::default()];
        for (op, second, pick, v) in ops {
            let (i, name) = (usize::from(second), pool[pick % pool.len()]);
            match op {
                0 => {
                    sinks[i].incr(name);
                    *models[i].counters.entry(name.to_owned()).or_default() += 1;
                }
                1 => {
                    // Includes `add(name, 0)`, which creates the counter.
                    let v = v % 3;
                    sinks[i].add(name, v);
                    *models[i].counters.entry(name.to_owned()).or_default() += v;
                }
                2 | 3 => {
                    sinks[i].observe(name, v as f64);
                    models[i].observe(name, v as f64);
                }
                4 => {
                    let got = sinks[i].take_window(name);
                    prop_assert_eq!(got, models[i].take_window(name), "window of {}", name);
                }
                5 | 6 => {
                    // Merge the other sink into this one, unless the series
                    // would outgrow what the model holds exactly.
                    let j = 1 - i;
                    if models[i].longest_series() + models[j].longest_series() < 1_000 {
                        let other = sinks[j].clone();
                        sinks[i].merge(&other);
                        let other = models[j].clone();
                        models[i].merge(&other);
                    }
                }
                _ => {
                    sinks[i].reset();
                    models[i] = MetricsModel::default();
                }
            }
            for (m, model) in sinks.iter().zip(&models) {
                assert_metrics_match(m, model);
            }
        }
    }

    /// Delivery timestamps observed by any node never decrease relative to
    /// the global clock, and the final clock bounds every observation.
    #[test]
    fn time_is_monotone(seed in any::<u64>(), n in 2u64..20, hops in 1u32..64) {
        let mut sim: Sim<Relay> = Sim::new(SimConfig::default().seed(seed));
        for i in 0..n {
            sim.add_node(NodeId(i), Relay { n, times: vec![] });
        }
        sim.inject(NodeId(0), NodeId(0), hops);
        sim.run();
        let end = sim.now().0;
        let mut all: Vec<u64> = Vec::new();
        for i in 0..n {
            all.extend(&sim.node(NodeId(i)).unwrap().times);
        }
        prop_assert_eq!(all.len() as u32, hops + 1, "every hop delivered exactly once");
        for &t in &all {
            prop_assert!(t <= end);
        }
    }

    /// Identical seeds produce identical trajectories for arbitrary
    /// configurations (the reproducibility contract of the whole repo).
    #[test]
    fn replay_is_deterministic(seed in any::<u64>(), n in 2u64..16, hops in 1u32..40) {
        let run = || {
            let mut sim: Sim<Relay> = Sim::new(SimConfig::default().seed(seed));
            for i in 0..n {
                sim.add_node(NodeId(i), Relay { n, times: vec![] });
            }
            sim.inject(NodeId(0), NodeId(0), hops);
            sim.run();
            let counters: Vec<(&'static str, u64)> = sim.metrics().counters().collect();
            (sim.now(), counters)
        };
        prop_assert_eq!(run(), run());
    }

    /// Churn schedules are time-ordered and per-node alternating for any
    /// valid parameterisation.
    #[test]
    fn churn_schedule_invariants(
        seed in any::<u64>(),
        n in 1u64..40,
        rate in 0.001f64..0.5,
        downtime in 1u64..10_000,
        perm in 0.0f64..1.0,
    ) {
        let model = ChurnModel::default()
            .failure_rate(rate)
            .mean_downtime(downtime)
            .permanent_prob(perm);
        let s = ChurnSchedule::generate(&model, n, Time(50_000), seed);
        for w in s.events().windows(2) {
            prop_assert!(w[0].at() <= w[1].at());
        }
        for node in 0..n {
            let mut up = true; // nodes start up
            for ev in s.events().iter().filter(|e| e.node() == NodeId(node)) {
                match ev {
                    ChurnEvent::Down(..) | ChurnEvent::Leave(..) => {
                        prop_assert!(up, "down/leave while already down");
                        up = false;
                    }
                    ChurnEvent::Up(..) => {
                        prop_assert!(!up, "up while already up");
                        up = true;
                    }
                }
            }
        }
    }

    /// Metrics merging is commutative for counters.
    #[test]
    fn metrics_merge_commutes(a in 0u64..1000, b in 0u64..1000, c in 0u64..1000) {
        let mut m1 = Metrics::new();
        m1.add("x", a);
        m1.add("y", b);
        let mut m2 = Metrics::new();
        m2.add("x", c);
        let mut left = m1.clone();
        left.merge(&m2);
        let mut right = m2.clone();
        right.merge(&m1);
        prop_assert_eq!(left.counter("x"), right.counter("x"));
        prop_assert_eq!(left.counter("y"), right.counter("y"));
    }

    /// Messages to killed nodes are never delivered, regardless of timing.
    #[test]
    fn dead_nodes_receive_nothing(seed in any::<u64>(), kill_at in 0u64..50) {
        struct Sink { got: u32 }
        impl Process for Sink {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {
                self.got += 1;
            }
        }
        let mut sim: Sim<Sink> = Sim::new(SimConfig::default().seed(seed));
        sim.add_node(NodeId(0), Sink { got: 0 });
        sim.add_node(NodeId(1), Sink { got: 0 });
        sim.schedule_down(Time(kill_at), NodeId(1));
        sim.run_until(Time(kill_at));
        for _ in 0..10 {
            sim.inject(NodeId(0), NodeId(1), ());
        }
        sim.run_until(Time(kill_at + 1_000));
        prop_assert_eq!(sim.node(NodeId(1)).unwrap().got, 0);
    }
}

/// Ids index a dense table: one far past it is refused instead of
/// allocating the gap.
#[test]
#[should_panic(expected = "node id 5000 lies far past the node table")]
fn a_far_sparse_node_id_panics() {
    let mut sim: Sim<Member> = Sim::new(SimConfig::default());
    sim.add_node(NodeId(0), Member { incarnation: 0, span: 1 });
    sim.add_node(NodeId(5_000), Member { incarnation: 1, span: 1 });
}

/// Up to twice the table plus 1024 past its end is still accepted; ids
/// skipped over are simply absent.
#[test]
fn a_moderately_sparse_node_id_is_accepted() {
    let mut sim: Sim<Member> = Sim::new(SimConfig::default());
    assert!(sim.add_node(NodeId(1_024), Member { incarnation: 0, span: 1 }));
    assert_eq!(sim.ids().collect::<Vec<_>>(), vec![NodeId(1_024)]);
    assert!(sim.node(NodeId(3)).is_none());
}
