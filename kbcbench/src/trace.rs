//! The benchmark's own span recorder: spans are recorded around the calls
//! the benchmark makes into each layer, kept in memory, and written out as
//! JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. `parent` is the op's root span (`None` for the op
/// itself); every span of one op shares `op`.
pub struct SpanRec {
    pub op: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span name of the benchmark's own bookkeeping (reading `RunReport`
/// between stage calls). It is not program work, so coverage excludes it
/// from the op's wall time instead of counting it as covered.
pub const BOOKKEEPING: &str = "bench.report";

pub struct Tracer {
    t0: Instant,
    next_id: u64,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Allocate the root span id of a new op.
    pub fn open_op(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Close the op's root span over `[start, end]`.
    pub fn close_op(&mut self, op: u64, name: &'static str, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(SpanRec {
            op,
            id: op,
            parent: None,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Run `f` as a child span of op `op`.
    pub fn span<T>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.next_id;
        self.next_id += 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(SpanRec {
            op,
            id,
            parent: Some(op),
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Self time of every span name within op `op` (a span's duration
    /// minus the part its children cover), plus the op root's own self
    /// time under the root's name.
    pub fn self_ns(&self, op: u64) -> Vec<(&'static str, u64)> {
        let spans: Vec<&SpanRec> = self.spans.iter().filter(|s| s.op == op).collect();
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for s in &spans {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| c.dur_ns())
                .sum();
            let own = s.dur_ns().saturating_sub(children);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, v)) => *v += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// Child spans ÷ op wall time, with the benchmark's bookkeeping spans
    /// taken out of both.
    pub fn coverage(&self, op: u64) -> f64 {
        let mut wall = 0u64;
        let mut covered = 0u64;
        let mut bookkeeping = 0u64;
        for s in self.spans.iter().filter(|s| s.op == op) {
            match (s.parent, s.name) {
                (None, _) => wall = s.dur_ns(),
                (Some(_), BOOKKEEPING) => bookkeeping += s.dur_ns(),
                (Some(_), _) => covered += s.dur_ns(),
            }
        }
        covered as f64 / wall.saturating_sub(bookkeeping).max(1) as f64
    }

    /// Render every span as one JSON line.
    pub fn render_spans(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"op\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.op,
                s.id,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            );
        }
        out
    }
}
