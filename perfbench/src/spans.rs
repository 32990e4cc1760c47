//! In-memory span recording for the traced run, and the self-time
//! arithmetic over the recorded spans.
//!
//! A span is one timed call into a layer's public function: name, start,
//! end, the span that caused it and the op it belongs to. Spans stay in
//! memory and are written out once, when the run ends.

use parda_trace::{Addr, AddressStream};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh id, shared by every span of one op.
    pub fn new_op(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Run `f` inside a new span. `f` receives the span's id so calls it
    /// makes can record child spans under it, from any thread.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// Length of `[lo, hi)` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Share of an op's wall time (its root span) that no layer span accounts
/// for: the root's duration minus the self times of every other span of
/// the op, over the root's duration.
pub fn unattributed_frac(spans: &[Span], op: u64) -> Option<f64> {
    let of_op: Vec<Span> = spans.iter().filter(|s| s.op == op).cloned().collect();
    let root = of_op.iter().find(|s| s.parent.is_none())?;
    let selfs = self_times(&of_op);
    let attributed: u64 = of_op
        .iter()
        .filter(|s| s.id != root.id)
        .map(|s| selfs[&s.id])
        .sum();
    let wall = root.dur_ns();
    (wall > 0).then(|| (wall as f64 - attributed as f64) / wall as f64)
}

/// Summed self time (seconds) of the spans named `name` in op `op`.
pub fn self_secs(spans: &[Span], op: u64, name: &str) -> f64 {
    let of_op: Vec<Span> = spans.iter().filter(|s| s.op == op).cloned().collect();
    let selfs = self_times(&of_op);
    of_op
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id])
        .sum::<u64>() as f64
        / 1e9
}

/// Render spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

/// An [`AddressStream`] that records a span around every `fill` the
/// consuming engine makes: the time the engine waits on the decoder.
pub struct TimedStream<S> {
    pub inner: S,
    pub tracer: Arc<Tracer>,
    pub parent: u64,
    pub op: u64,
}

impl<S: AddressStream> AddressStream for TimedStream<S> {
    fn next_addr(&mut self) -> Option<Addr> {
        self.inner.next_addr()
    }

    fn fill(&mut self, buf: &mut Vec<Addr>, n: usize) -> usize {
        let (tracer, parent, op) = (Arc::clone(&self.tracer), self.parent, self.op);
        tracer.span("parda_trace.fill", Some(parent), op, |_| {
            self.inner.fill(buf, n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parda_trace::SliceStream;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) ⊃ engine [10,90) ⊃ fills [20,30) and [25,40)
        // (overlapping) and [80,95) (runs past its parent's end).
        let spans = vec![
            span(1, None, "op", 0, 100),
            span(2, Some(1), "engine", 10, 90),
            span(3, Some(2), "fill", 20, 30),
            span(4, Some(2), "fill", 25, 40),
            span(5, Some(2), "fill", 80, 95),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 80);
        assert_eq!(s[&2], 80 - (20 + 10));
        assert_eq!(s[&3], 10);
        assert_eq!(s[&4], 15);
        assert_eq!(s[&5], 15);
        assert_eq!(self_secs(&spans, 1, "fill"), 40e-9);
    }

    #[test]
    fn unattributed_is_the_root_remainder() {
        let spans = vec![
            span(1, None, "op", 0, 100),
            span(2, Some(1), "open", 0, 5),
            span(3, Some(1), "engine", 5, 90),
            span(4, Some(3), "fill", 10, 20),
            span(5, Some(1), "render", 92, 100),
        ];
        // open 5 + engine self 75 + fill 10 + render 8 = 98 of 100.
        let u = unattributed_frac(&spans, 1).unwrap();
        assert!((u - 0.02).abs() < 1e-12, "{u}");
        assert_eq!(unattributed_frac(&spans, 7), None);
    }

    #[test]
    fn traced_op_on_a_tiny_input_is_attributed() {
        let trace: Vec<Addr> = (0..200_000u64).map(|i| (i * 7919) % 4096).collect();
        let tracer = Tracer::new();
        let op = tracer.new_op();
        let hist = tracer.span("op", None, op, |root| {
            let hist = tracer.span("engine", Some(root), op, |engine| {
                parda_core::Analysis::new()
                    .ranks(2)
                    .mode(parda_core::Mode::Phased {
                        chunk: 4096,
                        reduction: Default::default(),
                    })
                    .run_stream(TimedStream {
                        inner: SliceStream::new(&trace),
                        tracer: Arc::clone(&tracer),
                        parent: engine,
                        op,
                    })
                    .0
            });
            tracer.span("render", Some(root), op, |_| {
                serde_json::to_string(&hist).expect("histogram serializes")
            });
            hist
        });
        assert_eq!(hist.total(), 200_000);
        let spans = tracer.spans();
        assert!(
            spans
                .iter()
                .filter(|s| s.name == "parda_trace.fill")
                .count()
                > 1
        );
        let u = unattributed_frac(&spans, op).unwrap();
        assert!((0.0..0.05).contains(&u), "unattributed {u}");
        assert!(to_jsonl(&spans).lines().count() == spans.len());
    }
}
