//! In-memory spans for the traced run: each has a name, a start, an end
//! and the span that caused it. They are kept in memory while the run
//! measures and written out once at exit.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant as Wall;

/// One closed interval of work at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `cluster.replay` or `on_arrival`.
    pub name: &'static str,
    /// Thread the span ran on (`main` or `shard`).
    pub thread: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// A handle that creates child spans of one parent from any thread.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Wall,
    parent: u64,
    next_id: Arc<AtomicU64>,
}

impl SpanLog {
    /// A span of `name` under this handle's parent, over `[start, end]`.
    pub fn child_span(
        &self,
        name: &'static str,
        thread: &'static str,
        start: Wall,
        end: Wall,
    ) -> Span {
        Span {
            // Relaxed: the counter only hands out distinct ids.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: Some(self.parent),
            name,
            thread,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        }
    }
}

/// The main thread's span recorder: a stack of open spans plus every
/// closed one.
#[derive(Debug)]
pub struct Spans {
    epoch: Wall,
    next_id: Arc<AtomicU64>,
    open: Vec<(u64, &'static str, Wall)>,
    closed: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Spans {
            epoch: Wall::now(),
            next_id: Arc::new(AtomicU64::new(0)),
            open: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Opens a span of `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.open.push((id, name, Wall::now()));
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (a bug in the caller's nesting).
    pub fn exit(&mut self) {
        let end = Wall::now();
        let (id, name, start) = self.open.pop().expect("exit without a matching enter");
        self.closed.push(Span {
            id,
            parent: self.open.last().map(|&(p, _, _)| p),
            name,
            thread: "main",
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
    }

    /// Runs `f` inside a span of `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// A handle for spans recorded elsewhere (another thread) as
    /// children of the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn log(&self) -> SpanLog {
        SpanLog {
            epoch: self.epoch,
            parent: self.open.last().expect("log() needs an open span").0,
            next_id: Arc::clone(&self.next_id),
        }
    }

    /// Adds spans recorded through a [`SpanLog`].
    pub fn extend(&mut self, spans: impl IntoIterator<Item = Span>) {
        self.closed.extend(spans);
    }

    /// The closed spans, in id order.
    pub fn sorted(&self) -> Vec<Span> {
        let mut all = self.closed.clone();
        all.sort_by_key(|s| s.id);
        all
    }

    /// Writes the closed spans as JSON lines, one span per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.sorted() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut spans = Spans::new();
        spans.scope("outer", |s| {
            s.scope("inner", |_| {});
            let log = s.log();
            let now = Wall::now();
            let child = log.child_span("call", "shard", now, now);
            s.extend([child]);
        });
        let all = spans.sorted();
        assert_eq!(all.len(), 3);
        let outer = all.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, None);
        for name in ["inner", "call"] {
            let s = all.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, Some(outer.id));
            assert!(s.start_ns <= s.end_ns);
        }
        let mut buf = Vec::new();
        spans.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 3);
    }
}
