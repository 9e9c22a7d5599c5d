//! In-memory spans for the traced run.
//!
//! A span is one timed public call: name, start, end, the span that caused
//! it and the op it belongs to.  Spans stay in memory while the run
//! measures and are written out once, at the end.
//!
//! The benchmark times crates from outside, so a call made *inside* another
//! crate's function cannot be wrapped.  Such a call is replayed right after
//! its caller's span closes, on the same inputs, and recorded as that span's
//! child (see `NOTES.md`).  A span's self time is therefore its duration
//! minus the durations of its children, whether they ran inside its
//! interval or were replayed after it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sched.schedule`.
    pub name: String,
    /// The op this span belongs to; every span of one op shares it.
    pub op: usize,
    /// Index of the span that caused this one; `None` for an op's root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans and per-layer counts for a traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    op: usize,
    spans: Vec<Span>,
    counters: BTreeMap<String, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), op: 0, spans: Vec::new(), counters: BTreeMap::new() }
    }

    /// Starts a new op; spans opened from now on carry its id.
    pub fn begin_op(&mut self, op: usize) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Opens a span and returns its index; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as one span and returns the span's index with `f`'s result.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let id = self.open(name, parent);
        let out = std::hint::black_box(f());
        self.close(id);
        (id, out)
    }

    /// Adds `value` to the named count.
    pub fn count(&mut self, name: &str, value: f64) {
        *self.counters.entry(name.to_owned()).or_default() += value;
    }

    /// The named count, 0 if never recorded.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (duration minus its children's durations),
    /// in nanoseconds; negative when replayed children outlast the span.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.duration_ns() as i64).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.duration_ns() as i64;
            }
        }
        own
    }

    /// Summed duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum();
        ns as f64 / 1e6
    }

    /// Summed self time of the spans named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let own = self.self_ns();
        let ns: i64 =
            self.spans.iter().zip(&own).filter(|(s, _)| s.name == name).map(|(_, &o)| o).sum();
        ns as f64 / 1e6
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The share of the ops' root time that the non-negative self times of
    /// all their spans account for: 1 when every replayed child fits inside
    /// its parent, above 1 by however much replays outlast their parents.
    pub fn accounted_ratio(&self) -> f64 {
        let roots: u64 =
            self.spans.iter().filter(|s| s.parent.is_none()).map(Span::duration_ns).sum();
        let accounted: i64 = self.self_ns().into_iter().map(|o| o.max(0)).sum();
        if roots == 0 {
            0.0
        } else {
            accounted as f64 / roots as f64
        }
    }

    /// Writes `header` then one JSON object per span, one per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        let mut text = String::with_capacity(64 * (self.spans.len() + 1));
        text.push_str(header);
        text.push('\n');
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                text,
                "{{\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                span.op, span.name, span.start_ns, span.end_ns, parent
            )
            .expect("writing to a String cannot fail");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_including_replayed_ones() {
        let mut t = Tracer::new();
        t.begin_op(3);
        let root = t.open("root", None);
        t.span("inside", Some(root), || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.close(root);
        t.span("replayed", Some(root), || std::thread::sleep(std::time::Duration::from_millis(1)));
        let own = t.self_ns();
        let spans = t.spans();
        assert!(spans.iter().all(|s| s.op == 3));
        let expected = spans[0].duration_ns() as i64
            - spans[1].duration_ns() as i64
            - spans[2].duration_ns() as i64;
        assert_eq!(own[0], expected);
        assert_eq!(t.calls("inside"), 1);
    }
}
