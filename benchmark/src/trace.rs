//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer in a span: name, start,
//! end, the span that caused it and, for served requests, the request
//! id. Spans stay in memory while the round runs and are written out as
//! JSON lines afterwards. A layer's self time is its span's duration
//! minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Request id, for spans that belong to one served request.
    pub req: Option<u64>,
    /// Recording thread (0 = the benchmark's main thread).
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log. Spans opened with [`Tracer::begin`] nest:
/// each new span's parent is the innermost span still open.
pub struct Tracer {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: u32) -> Self {
        Tracer {
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str, req: Option<u64>) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
            thread: self.thread,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, req: Option<u64>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Record an already finished span under the innermost open one
    /// (used for sampled engine steps, which are timed by the caller).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: Option<u64>) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            req,
            thread: self.thread,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(
            self.open.is_empty(),
            "every span must be closed before export"
        );
        self.spans
    }
}

/// Run `f` inside a span when a tracer is attached, plainly otherwise,
/// so the traced and untraced rounds share one code path.
pub fn span<T>(
    t: &mut Option<Tracer>,
    name: &'static str,
    req: Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    match t {
        Some(t) => t.span(name, req, f),
        None => f(),
    }
}

/// [`Tracer::begin`] when a tracer is attached.
pub fn open(t: &mut Option<Tracer>, name: &'static str, req: Option<u64>) -> Option<usize> {
    t.as_mut().map(|t| t.begin(name, req))
}

/// [`Tracer::end`] for a span opened with [`open`].
pub fn close(t: &mut Option<Tracer>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (t.as_mut(), id) {
        t.end(id);
    }
}

/// Spans around host reference samples (see [`crate::host`]): benchmark
/// overhead, not a layer, so busy shares and coverage leave them out.
pub const REFERENCE: &str = "host.reference";

/// The measured window below `root`: its duration minus the reference
/// samples taken inside it, in ns.
pub fn window_ns(spans: &[Span], root: usize) -> f64 {
    let reference: u64 = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == REFERENCE && within(spans, *i, root))
        .map(|(_, s)| s.dur_ns())
        .sum();
    spans[root].dur_ns().saturating_sub(reference) as f64
}

/// Share of the window below `root` that the layers' spans cover
/// (reference samples excluded on both sides).
pub fn coverage(spans: &[Span], root: usize) -> f64 {
    let covered: u64 = self_by_name(spans, root)
        .iter()
        .filter(|(n, _)| **n != REFERENCE)
        .map(|(_, e)| e.1)
        .sum();
    crate::stats::ratio(covered as f64, window_ns(spans, root))
}

/// Concatenate per-thread traces into one, re-basing parent indices.
pub fn merge(traces: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for spans in traces {
        let base = out.len();
        out.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Whether span `i` lies at or below span `root`.
pub fn within(spans: &[Span], mut i: usize, root: usize) -> bool {
    loop {
        if i == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

/// Per span name below `root` (exclusive): `(count, summed self ns)`.
pub fn self_by_name(spans: &[Span], root: usize) -> BTreeMap<&'static str, (u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if i != root && within(spans, i, root) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own[i];
        }
    }
    out
}

/// Durations in µs, ascending, of every span called `name` below `root`.
pub fn durations_us(spans: &[Span], root: usize, name: &str) -> Vec<f64> {
    let v = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == name && within(spans, *i, root))
        .map(|(_, s)| s.dur_ns() as f64 / 1e3)
        .collect();
    crate::stats::sorted(v)
}

/// Write spans as JSON lines (one object per span).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{},\"thread\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.req),
            s.thread
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: None,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // round [0,100) ⊃ batch [10,90) ⊃ {plan [10,20), exec [20,80)};
        // exec ⊃ inner [30,40).
        let spans = vec![
            span("round", 0, 100, None),
            span("batch", 10, 90, Some(0)),
            span("plan", 10, 20, Some(1)),
            span("exec", 20, 80, Some(1)),
            span("inner", 30, 40, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 10, 50, 10]);
        // Self times of a properly nested tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let by = self_by_name(&spans, 0);
        assert_eq!(by["exec"], (1, 50));
        assert!(!by.contains_key("round"), "the root itself is excluded");
        assert_eq!(durations_us(&spans, 1, "plan"), vec![0.01]);
    }

    #[test]
    fn tracer_nests_and_merges() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 0);
        let root = t.begin("round", None);
        t.span("plan", Some(7), || ());
        let now = Instant::now();
        t.record("step", now, now, None);
        t.end(root);
        let a = t.into_spans();
        assert_eq!(a[1].parent, Some(0));
        assert_eq!(a[1].req, Some(7));
        assert_eq!(a[2].parent, Some(0));

        let mut u = Tracer::new(origin, 1);
        let r = u.begin("wait", None);
        u.span("inner", None, || ());
        u.end(r);
        let merged = merge(vec![a, u.into_spans()]);
        assert_eq!(merged.len(), 5);
        assert_eq!(merged[4].parent, Some(3), "second trace re-based");
        assert!(within(&merged, 4, 3) && !within(&merged, 4, 0));
    }
}
