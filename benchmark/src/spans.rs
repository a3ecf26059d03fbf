//! In-memory spans around the calls the benchmark makes into each layer:
//! name, wall start/end, sim tick start/end, parent, and the op's `req`
//! id as the identifier the spans of one request share. Self time is a
//! span's duration minus what its children cover. The spans are written
//! out as Chrome trace-event JSON when the run ends.

use dd_sim::json_escape;
use std::collections::BTreeMap;
use std::time::Instant;

/// `req` of a span that belongs to no single client operation.
pub const NO_REQ: u64 = 0;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tick_start: u64,
    pub tick_end: u64,
    pub req: u64,
}

/// Records spans while a traced pass runs; an untraced pass has none.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, tick: u64, req: u64) {
        let start_ns = self.now_ns();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            tick_start: tick,
            tick_end: tick,
            req,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self, tick: u64) {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("close matches an open span");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.tick_end = tick;
    }

    /// Stamps the request id on the innermost open span, for a call that
    /// only learns it by returning.
    pub fn set_req(&mut self, req: u64) {
        let id = *self.open.last().expect("a span is open");
        self.spans[id as usize].req = req;
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// Self time of every span, index-parallel to `spans`: its duration minus
/// the part of it that the union of its children covers. Children that
/// overlap each other are counted once, and a child is clipped to its
/// parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if start < end {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// What the spans of one name add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
    }
    out
}

/// Most spans one trace file holds: a read-heavy pass records one submit
/// span per op, and a file of every one of them is too big to open.
pub const TRACE_FILE_SPANS: usize = 50_000;

/// Chrome trace-event JSON ("complete" events, microsecond timestamps) of
/// the first [`TRACE_FILE_SPANS`] spans; `otherData` says how many were
/// recorded in all.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().take(TRACE_FILE_SPANS).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, i64::from);
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"req\": {}, \
             \"tick_start\": {}, \"tick_end\": {}}}}}",
            json_escape(s.name),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.req,
            s.tick_start,
            s.tick_end,
        ));
    }
    out.push_str(&format!(
        "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {{\"workload\": \"{}\", \
         \"spans_recorded\": {}, \"spans_written\": {}}}}}\n",
        json_escape(workload),
        spans.len(),
        spans.len().min(TRACE_FILE_SPANS),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, start_ns, end_ns, tick_start: 0, tick_end: 0, req: NO_REQ }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = [
            span("root", None, 0, 100),
            span("child", Some(0), 10, 60),
            span("grandchild", Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = [
            span("root", None, 100, 200),
            span("a", Some(0), 110, 150),
            span("b", Some(0), 140, 170), // overlaps `a` for 10
            span("c", Some(0), 120, 130), // inside `a`
            span("d", Some(0), 190, 250), // overhangs the parent by 50
            span("e", Some(0), 10, 50),   // wholly outside the parent
        ];
        // Covered: [110, 170) and [190, 200) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("loop", None, 0, 100),
            span("pump", Some(0), 0, 30),
            span("pump", Some(0), 50, 70),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals["pump"], NameTotal { count: 2, total_ns: 50, self_ns: 50 });
        assert_eq!(totals["loop"], NameTotal { count: 1, total_ns: 100, self_ns: 50 });
    }

    #[test]
    fn recorder_nests_by_call_order_and_keeps_ticks_and_req() {
        let mut r = Recorder::new();
        r.open("outer", 5, NO_REQ);
        r.open("inner", 6, NO_REQ);
        r.set_req(42);
        r.close(7);
        r.close(9);
        let spans = r.finish();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].tick_start, spans[1].tick_end, spans[1].req), (6, 7, 42));
        assert_eq!((spans[0].parent, spans[0].tick_end), (None, 9));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn chrome_trace_is_parseable_and_escaped() {
        let spans =
            [span("core.cluster.pump", None, 1_500, 4_000), span("q\"\\\n", Some(0), 2_000, 3_000)];
        let doc = parse(&chrome_trace("read\"small", &spans)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).expect("event list");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("core.cluster.pump"));
        assert_eq!(events[0].get("ts").and_then(Json::as_f64), Some(1.5));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(2.5));
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("q\"\\\n"));
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        let other = doc.get("otherData").expect("otherData");
        assert_eq!(other.get("workload").and_then(Json::as_str), Some("read\"small"));
        assert_eq!(other.get("spans_recorded").and_then(Json::as_f64), Some(2.0));
    }
}
