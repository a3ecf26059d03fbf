//! # dd-trace — causal tracing with critical-path latency attribution
//!
//! The observability layer between the metrics plane (which can say *that*
//! tail latency happened) and the audit plane (which can say *that* the
//! history was safe): a Dapper-style span recorder that explains *why* a
//! specific operation took as long as it did.
//!
//! Every traced client operation becomes a [`Trace`]: a tree of [`Span`]s
//! — client submit → soft coordinator → per-target waits → persist
//! stores/serves — stamped in virtual time, so a traced run replays
//! byte-identically from its seed. The [`Recorder`] implements
//! [`dd_sim::Tracer`] and reaches the simulator as the installed
//! observer's span sink ([`dd_sim::Observer::tracer`]); protocol code
//! opens and closes spans through [`dd_sim::Ctx::trace_open`] and
//! [`dd_sim::Ctx::trace_close`], which cost one branch when no recorder is
//! installed.
//!
//! On top of raw spans sit the analysis kernels:
//!
//! * [`Trace::critical_path`] — the chain of spans whose removal would
//!   have completed the operation sooner, extracted by a backward walk
//!   from the root's completion;
//! * [`TraceReport`] — per-hop and per-tier latency breakdown over every
//!   traced op's critical path, plus a slowest-ops digest
//!   ([`OpDigest`]) naming the dominant hop of each tail op;
//! * [`TraceSet::to_chrome_json`] / [`Trace::to_chrome_json`] — Chrome
//!   trace-event JSON, so any run opens in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev).
//!
//! ```
//! use dd_sim::{NodeId, Time, Tracer};
//! use dd_trace::Recorder;
//!
//! let mut rec = Recorder::default();
//! let root = rec.open(Time(0), NodeId(9), 1, None, "client.get");
//! let wait = rec.open(Time(2), NodeId(3), 1, Some(root), "soft.fetch_wait");
//! rec.close(Time(40), 1, wait, true);
//! rec.close(Time(45), 1, root, true);
//! let set = rec.finish();
//! let trace = set.get(1).unwrap();
//! assert_eq!(trace.duration(), 45);
//! // The 38-tick wait on node 3 dominates the critical path.
//! let path = trace.critical_path();
//! let top = path.iter().max_by_key(|s| s.ticks()).unwrap();
//! assert_eq!((trace.span(top.span).label, top.ticks()), ("soft.fetch_wait", 38));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dd_sim::{NodeId, Time, Tracer};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One timed unit of work (or waiting) attributed to one node, nested
/// under a parent span of the same operation's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Id within the operation's trace; spans are stored in id order and
    /// the root is always span 0.
    pub id: u32,
    /// Parent span, `None` for the root.
    pub parent: Option<u32>,
    /// Node the work (or waiting) happened on.
    pub node: NodeId,
    /// What the span covers, `tier.what` by convention (`soft.fetch_wait`,
    /// `persist.store`, ...).
    pub label: &'static str,
    /// Open time, in virtual ticks.
    pub start: u64,
    /// Close time; `None` while still open (a finished [`TraceSet`] has
    /// every span closed).
    pub end: Option<u64>,
    /// Whether the span completed its work (`false`: struck by the
    /// failure detector, expired by a deadline sweep, or still open when
    /// the trace was finished) — the signal that pins a timeout on the
    /// hop that never replied.
    pub answered: bool,
}

impl Span {
    /// Close time, treating a still-open span as instantaneous.
    #[must_use]
    pub fn end_resolved(&self) -> u64 {
        self.end.unwrap_or(self.start)
    }

    /// Ticks between open and close.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.end_resolved().saturating_sub(self.start)
    }

    /// The tier prefix of the label (`soft` of `soft.fetch_wait`).
    #[must_use]
    pub fn tier(&self) -> &'static str {
        self.label.split_once('.').map_or(self.label, |(tier, _)| tier)
    }
}

/// One operation's span tree. Spans are stored in open order, `spans[i]`
/// has `id == i`, and span 0 is the root (the client-side envelope of the
/// whole operation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The traced operation (the client request id).
    pub op: u64,
    /// Every span opened for the operation, in id order.
    pub spans: Vec<Span>,
}

/// One segment of a critical path: the interval `[from, to]` during which
/// `span` was the reason the operation had not yet completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSeg {
    /// The responsible span's id.
    pub span: u32,
    /// Segment start, in virtual ticks.
    pub from: u64,
    /// Segment end, in virtual ticks.
    pub to: u64,
}

impl PathSeg {
    /// Length of the segment.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.to - self.from
    }
}

impl Trace {
    /// The root span.
    #[must_use]
    pub fn root(&self) -> &Span {
        &self.spans[0]
    }

    /// The span with this id.
    ///
    /// # Panics
    /// Panics if the id is not in this trace.
    #[must_use]
    pub fn span(&self, id: u32) -> &Span {
        &self.spans[id as usize]
    }

    /// End-to-end duration: root open to root close.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.root().ticks()
    }

    /// Extracts the operation's critical path: the chain of spans whose
    /// removal would have completed the operation sooner, as contiguous
    /// time segments from root open to root close.
    ///
    /// Walks backwards from the root's completion. At each cursor
    /// position the *latest-finishing* child that closed by the cursor is
    /// the binding dependency — everything that finished earlier was
    /// already waiting on it — so the walk descends into that child at its
    /// close time, resumes on the parent at the child's open time, and
    /// attributes any uncovered gap to the parent itself. Zero-length
    /// segments are dropped; an instantaneous trace yields an empty path.
    #[must_use]
    pub fn critical_path(&self) -> Vec<PathSeg> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push(s.id);
            }
        }
        let mut out = Vec::new();
        self.walk(&children, 0, self.root().end_resolved(), &mut out);
        out.reverse();
        out
    }

    /// Backward walk under `idx` ending at `cursor`; pushes segments in
    /// reverse chronological order.
    fn walk(&self, children: &[Vec<u32>], idx: u32, mut cursor: u64, out: &mut Vec<PathSeg>) {
        let own = &self.spans[idx as usize];
        loop {
            // The binding dependency: the latest-finishing child that
            // closed by the cursor and opened before it (the open-strictly-
            // before condition keeps instantaneous spans from looping).
            let pick = children[idx as usize]
                .iter()
                .map(|&c| &self.spans[c as usize])
                .filter(|c| c.end_resolved() <= cursor && c.start < cursor)
                .max_by_key(|c| (c.end_resolved(), c.id));
            let Some(child) = pick else {
                let from = own.start.min(cursor);
                if cursor > from {
                    out.push(PathSeg { span: idx, from, to: cursor });
                }
                return;
            };
            let (child_id, child_start, child_end) = (child.id, child.start, child.end_resolved());
            if child_end < cursor {
                // The parent's own trailing work after the child closed.
                out.push(PathSeg { span: idx, from: child_end, to: cursor });
            }
            self.walk(children, child_id, child_end, out);
            cursor = child_start;
        }
    }

    /// This trace alone as Chrome trace-event JSON (see
    /// [`TraceSet::to_chrome_json`]).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        chrome_json(std::slice::from_ref(self))
    }
}

/// The span sink the simulator drives during a traced run. An observer
/// holds it and hands it to the kernel as its [`dd_sim::Observer::tracer`]
/// (dd-core's `Cluster::observe` does); once the run is over, take the
/// observer back and call [`Recorder::finish`].
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    traces: Vec<Trace>,
    index: HashMap<u64, usize>,
}

impl Recorder {
    /// Number of operations recorded so far.
    #[must_use]
    pub fn ops(&self) -> usize {
        self.traces.len()
    }

    /// Finishes recording: closes every dangling span (at the trace's
    /// last close time, marked unanswered) and returns the immutable span
    /// trees in first-opened order.
    #[must_use]
    pub fn finish(mut self) -> TraceSet {
        for t in &mut self.traces {
            let horizon = t.spans.iter().filter_map(|s| s.end).max();
            let horizon =
                horizon.unwrap_or_else(|| t.spans.iter().map(|s| s.start).max().unwrap_or(0));
            for s in &mut t.spans {
                if s.end.is_none() {
                    s.end = Some(horizon.max(s.start));
                    s.answered = false;
                }
            }
        }
        TraceSet { traces: self.traces }
    }
}

impl Tracer for Recorder {
    fn open(
        &mut self,
        at: Time,
        node: NodeId,
        op: u64,
        parent: Option<u32>,
        label: &'static str,
    ) -> u32 {
        let idx = *self.index.entry(op).or_insert_with(|| {
            self.traces.push(Trace { op, spans: Vec::new() });
            self.traces.len() - 1
        });
        let spans = &mut self.traces[idx].spans;
        let id = spans.len() as u32;
        debug_assert!(parent.map_or(id == 0, |p| p < id), "parent must pre-exist");
        spans.push(Span { id, parent, node, label, start: at.0, end: None, answered: false });
        id
    }

    fn close(&mut self, at: Time, op: u64, span: u32, answered: bool) {
        let Some(&idx) = self.index.get(&op) else { return };
        let Some(s) = self.traces[idx].spans.get_mut(span as usize) else { return };
        // First close wins: a span struck unanswered stays unanswered
        // even if a late reply lands after the strike.
        if s.end.is_none() {
            s.end = Some(at.0.max(s.start));
            s.answered = answered;
        }
    }
}

/// Every trace a finished run recorded, in first-opened order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSet {
    /// The recorded span trees.
    pub traces: Vec<Trace>,
}

impl TraceSet {
    /// Number of traced operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when nothing was traced.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// The trace of operation `op`, if it was recorded.
    #[must_use]
    pub fn get(&self, op: u64) -> Option<&Trace> {
        self.traces.iter().find(|t| t.op == op)
    }

    /// Exports every trace as Chrome trace-event JSON: open the string
    /// (saved as a `.json` file) in `chrome://tracing` or
    /// <https://ui.perfetto.dev>. Each node renders as a process row
    /// (`pid` = node id), each operation as a thread within it (`tid` =
    /// op), and each span as a complete event with its virtual-time
    /// open/duration; unanswered spans carry `"answered": false` in their
    /// args. Deterministic: same traces, same bytes.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        chrome_json(&self.traces)
    }
}

fn chrome_json(traces: &[Trace]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut nodes: Vec<u64> =
        traces.iter().flat_map(|t| t.spans.iter().map(|s| s.node.0)).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut first = true;
    for n in nodes {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{n},\"tid\":0,\
             \"args\":{{\"name\":\"node {n}\"}}}}"
        );
    }
    for t in traces {
        for s in &t.spans {
            sep(&mut out, &mut first);
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"answered\":{}}}}}",
                s.label,
                s.tier(),
                s.start,
                s.ticks(),
                s.node.0,
                t.op,
                s.id,
                parent,
                s.answered,
            );
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

/// One row of a per-hop (or per-tier) latency breakdown: how much
/// critical-path time a span label accounted for across every traced op.
#[derive(Debug, Clone, PartialEq)]
pub struct HopRow {
    /// The span label (per-hop rows) or tier prefix (per-tier rows).
    pub label: String,
    /// Critical-path segments attributed to the label.
    pub segments: u64,
    /// Critical-path ticks attributed to the label.
    pub ticks: u64,
    /// Fraction of all critical-path ticks (0.0 when nothing was traced).
    pub share: f64,
}

/// One step of a slowest-op digest's critical path, resolved to the
/// owning span's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStep {
    /// The responsible span's label.
    pub label: &'static str,
    /// Node the span ran on.
    pub node: NodeId,
    /// Segment start, in virtual ticks.
    pub from: u64,
    /// Segment end, in virtual ticks.
    pub to: u64,
    /// Whether the responsible span completed its work.
    pub answered: bool,
}

impl PathStep {
    /// Length of the step.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.to - self.from
    }
}

/// One slowest-op entry: the op, its end-to-end latency, and its critical
/// path resolved to labels and nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpDigest {
    /// The operation (client request id).
    pub op: u64,
    /// End-to-end duration in virtual ticks.
    pub ticks: u64,
    /// The critical path, in time order.
    pub path: Vec<PathStep>,
}

impl OpDigest {
    /// The longest *hop* of the path — where the op actually spent its
    /// time between nodes. Segments credited to the root client span
    /// (submission and completion-poll time on the issuing node) are
    /// excluded unless the path has no interior hop at all; ties resolve
    /// to the later step.
    #[must_use]
    pub fn dominant(&self) -> Option<&PathStep> {
        self.path
            .iter()
            .filter(|s| !s.label.starts_with("client."))
            .max_by_key(|s| (s.ticks(), s.from))
            .or_else(|| self.path.iter().max_by_key(|s| (s.ticks(), s.from)))
    }
}

/// How many slowest ops a [`TraceReport`] digests.
pub const SLOWEST_OPS: usize = 5;

/// The analysis layer over a finished [`TraceSet`]: critical paths of
/// every traced op, aggregated per hop label and per tier, plus the
/// slowest-ops digest. Attached to a `ScenarioReport` by a traced
/// scenario run; the raw set rides along for export and drill-down.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Operations traced.
    pub ops: u64,
    /// Spans recorded across all operations.
    pub spans: u64,
    /// Per-hop critical-path breakdown, largest share first.
    pub hops: Vec<HopRow>,
    /// Per-tier critical-path breakdown (label prefix before the `.`),
    /// largest share first.
    pub tiers: Vec<HopRow>,
    /// The [`SLOWEST_OPS`] slowest operations, slowest first.
    pub slowest: Vec<OpDigest>,
    /// The raw traces the analysis was computed from.
    pub set: TraceSet,
}

impl TraceReport {
    /// Analyses a finished trace set.
    #[must_use]
    pub fn build(set: TraceSet) -> Self {
        let mut hop_acc: HashMap<&'static str, (u64, u64)> = HashMap::new();
        let mut tier_acc: HashMap<&'static str, (u64, u64)> = HashMap::new();
        let mut digests: Vec<OpDigest> = Vec::with_capacity(set.traces.len());
        let mut spans = 0u64;
        for t in &set.traces {
            spans += t.spans.len() as u64;
            let path = t.critical_path();
            let mut steps = Vec::with_capacity(path.len());
            for seg in path {
                let s = t.span(seg.span);
                let hop = hop_acc.entry(s.label).or_default();
                hop.0 += 1;
                hop.1 += seg.ticks();
                let tier = tier_acc.entry(s.tier()).or_default();
                tier.0 += 1;
                tier.1 += seg.ticks();
                steps.push(PathStep {
                    label: s.label,
                    node: s.node,
                    from: seg.from,
                    to: seg.to,
                    answered: s.answered,
                });
            }
            digests.push(OpDigest { op: t.op, ticks: t.duration(), path: steps });
        }
        digests.sort_by_key(|d| (std::cmp::Reverse(d.ticks), d.op));
        digests.truncate(SLOWEST_OPS);
        TraceReport {
            ops: set.traces.len() as u64,
            spans,
            hops: rows(hop_acc),
            tiers: rows(tier_acc),
            slowest: digests,
            set,
        }
    }

    /// Renders the per-hop table and slowest-op paths as a compact text
    /// block (what `examples/traced_drill.rs` prints).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} ops traced, {} spans", self.ops, self.spans);
        let _ = writeln!(out, "critical-path time by hop:");
        for h in &self.hops {
            let _ = writeln!(
                out,
                "  {:<24} {:>8} ticks  {:>5.1}%  ({} segments)",
                h.label,
                h.ticks,
                h.share * 100.0,
                h.segments
            );
        }
        for d in &self.slowest {
            let _ = writeln!(out, "op {} took {} ticks; critical path:", d.op, d.ticks);
            for s in &d.path {
                let _ = writeln!(
                    out,
                    "  t{:>6}..t{:<6} {:>6} ticks  {:<24} node {}{}",
                    s.from,
                    s.to,
                    s.ticks(),
                    s.label,
                    s.node.0,
                    if s.answered { "" } else { "  [never answered]" }
                );
            }
        }
        out
    }
}

fn rows(acc: HashMap<&'static str, (u64, u64)>) -> Vec<HopRow> {
    let total: u64 = acc.values().map(|&(_, t)| t).sum();
    let mut rows: Vec<HopRow> = acc
        .into_iter()
        .map(|(label, (segments, ticks))| HopRow {
            label: label.to_owned(),
            segments,
            ticks,
            share: if total == 0 { 0.0 } else { ticks as f64 / total as f64 },
        })
        .collect();
    rows.sort_by(|a, b| (b.ticks, &a.label).cmp(&(a.ticks, &b.label)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-builds a trace through the public `Tracer` API.
    struct Builder {
        rec: Recorder,
    }

    impl Builder {
        fn new() -> Self {
            Builder { rec: Recorder::default() }
        }
        fn open(&mut self, at: u64, node: u64, parent: Option<u32>, label: &'static str) -> u32 {
            self.rec.open(Time(at), NodeId(node), 1, parent, label)
        }
        fn close(&mut self, at: u64, span: u32, answered: bool) {
            self.rec.close(Time(at), 1, span, answered);
        }
        fn finish(self) -> Trace {
            let mut set = self.rec.finish();
            set.traces.remove(0)
        }
    }

    fn segs(t: &Trace) -> Vec<(u32, u64, u64)> {
        t.critical_path().iter().map(|s| (s.span, s.from, s.to)).collect()
    }

    #[test]
    fn fan_out_blames_the_slowest_branch() {
        // Root fans out to three children; the middle one finishes last.
        let mut b = Builder::new();
        let root = b.open(0, 9, None, "client.get");
        let a = b.open(5, 1, Some(root), "soft.fetch_wait");
        let c = b.open(5, 2, Some(root), "soft.fetch_wait");
        let d = b.open(5, 3, Some(root), "soft.fetch_wait");
        b.close(20, a, true);
        b.close(80, c, true);
        b.close(40, d, true);
        b.close(90, root, true);
        let t = b.finish();
        // Path: root 0..5 (dispatch), child c 5..80 (the straggler),
        // root 80..90 (harvest). Faster branches never appear.
        assert_eq!(segs(&t), vec![(root, 0, 5), (c, 5, 80), (root, 80, 90)]);
        assert_eq!(t.duration(), 90);
    }

    #[test]
    fn straggler_chain_descends_through_nested_waits() {
        // Coordinator span under the root; its own slowest wait nests one
        // level deeper — the walk must descend through both.
        let mut b = Builder::new();
        let root = b.open(0, 9, None, "client.multi_get");
        let coord = b.open(10, 1, Some(root), "soft.multi_get");
        let w1 = b.open(10, 4, Some(coord), "soft.tagfetch_wait");
        let w2 = b.open(10, 5, Some(coord), "soft.tagfetch_wait");
        b.close(30, w1, true);
        b.close(200, w2, false); // struck: never answered
        b.close(200, coord, true);
        b.close(210, root, true);
        let t = b.finish();
        assert_eq!(segs(&t), vec![(root, 0, 10), (w2, 10, 200), (root, 200, 210)]);
        // The dominant hop is the unanswered wait on node 5.
        let report = TraceReport::build(TraceSet { traces: vec![t] });
        let top = report.slowest[0].dominant().unwrap();
        assert_eq!((top.node, top.answered), (NodeId(5), false));
        assert_eq!(report.hops[0].label, "soft.tagfetch_wait");
        assert!(report.hops[0].share > 0.9);
    }

    #[test]
    fn retry_shape_credits_the_retry_not_the_first_attempt() {
        // A wait is struck, then re-issued (peer restore re-fetch): the
        // path runs through the *second* attempt, with the gap between
        // attempts attributed to the parent.
        let mut b = Builder::new();
        let root = b.open(0, 9, None, "client.get");
        let first = b.open(5, 2, Some(root), "soft.fetch_wait");
        b.close(50, first, false);
        let retry = b.open(70, 3, Some(root), "soft.fetch_wait");
        b.close(100, retry, true);
        b.close(100, root, true);
        let t = b.finish();
        assert_eq!(segs(&t), vec![(root, 0, 5), (first, 5, 50), (root, 50, 70), (retry, 70, 100)]);
    }

    #[test]
    fn instantaneous_spans_terminate_the_walk() {
        // A persist store is instantaneous (the sim handler runs in zero
        // virtual time); the walk must not loop on it.
        let mut b = Builder::new();
        let root = b.open(0, 9, None, "client.put");
        let order = b.open(25, 1, Some(root), "soft.order");
        b.close(25, order, true);
        b.close(50, root, true);
        let t = b.finish();
        assert_eq!(segs(&t), vec![(root, 0, 25), (root, 25, 50)]);
        let zero = Trace {
            op: 7,
            spans: vec![Span {
                id: 0,
                parent: None,
                node: NodeId(1),
                label: "client.put",
                start: 3,
                end: Some(3),
                answered: true,
            }],
        };
        assert_eq!(zero.critical_path(), vec![]);
    }

    #[test]
    fn finish_closes_dangling_spans_unanswered_at_the_horizon() {
        let mut rec = Recorder::default();
        let root = rec.open(Time(0), NodeId(9), 3, None, "client.get");
        let wait = rec.open(Time(5), NodeId(2), 3, Some(root), "soft.fetch_wait");
        rec.close(Time(60), 3, root, true);
        let _ = wait;
        let set = rec.finish();
        let t = set.get(3).unwrap();
        assert_eq!(t.spans[1].end, Some(60), "dangling wait closed at the trace horizon");
        assert!(!t.spans[1].answered);
        assert!(t.spans[0].answered);
    }

    #[test]
    fn first_close_wins_over_late_replies() {
        let mut rec = Recorder::default();
        let root = rec.open(Time(0), NodeId(9), 3, None, "client.get");
        let wait = rec.open(Time(5), NodeId(2), 3, Some(root), "soft.fetch_wait");
        rec.close(Time(30), 3, wait, false); // strike
        rec.close(Time(44), 3, wait, true); // late reply after the strike
        rec.close(Time(50), 3, root, true);
        let t = rec.finish().get(3).unwrap().clone();
        assert_eq!((t.spans[1].end, t.spans[1].answered), (Some(30), false));
    }

    #[test]
    fn report_aggregates_hops_and_tiers() {
        let mut rec = Recorder::default();
        for op in 0..4u64 {
            let root = rec.open(Time(0), NodeId(9), op, None, "client.get");
            let wait = rec.open(Time(5), NodeId(op), op, Some(root), "soft.fetch_wait");
            rec.close(Time(5 + 10 * (op + 1)), op, wait, true);
            rec.close(Time(10 + 10 * (op + 1)), op, root, true);
        }
        let report = TraceReport::build(rec.finish());
        assert_eq!((report.ops, report.spans), (4, 8));
        assert_eq!(report.slowest.len(), 4);
        assert_eq!(report.slowest[0].op, 3, "slowest first");
        assert!(report.slowest[0].ticks > report.slowest[3].ticks);
        let total: f64 = report.hops.iter().map(|h| h.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to 1, got {total}");
        let tiers: Vec<&str> = report.tiers.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(tiers, vec!["soft", "client"], "waits dominate the client envelope");
        assert!(report.summary().contains("critical-path time by hop"));
    }

    #[test]
    fn chrome_export_is_deterministic_and_well_formed() {
        let mut rec = Recorder::default();
        let root = rec.open(Time(0), NodeId(9), 1, None, "client.get");
        let wait = rec.open(Time(5), NodeId(2), 1, Some(root), "soft.fetch_wait");
        rec.close(Time(30), 1, wait, false);
        rec.close(Time(40), 1, root, true);
        let set = rec.finish();
        let json = set.to_chrome_json();
        assert_eq!(json, set.clone().to_chrome_json(), "same traces, same bytes");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\"") && json.contains("\"name\":\"node 2\""));
        assert!(json.contains(
            "{\"name\":\"soft.fetch_wait\",\"cat\":\"soft\",\"ph\":\"X\",\"ts\":5,\"dur\":25,\
             \"pid\":2,\"tid\":1,\"args\":{\"span\":1,\"parent\":0,\"answered\":false}}"
        ));
        assert!(json.contains("\"parent\":null"));
        assert_eq!(set.get(1).unwrap().to_chrome_json(), json, "single-trace export matches");
        // Balanced braces/brackets — a cheap well-formedness proxy in a
        // workspace without a JSON parser.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }
}
