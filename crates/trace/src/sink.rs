//! Event delivery: the [`Sink`] trait, the concrete sinks, and the
//! statically dispatched [`AnySink`] that instrumented components hold.
//!
//! The simulator is single-threaded, so sinks are shared as
//! `Rc<RefCell<AnySink>>` ([`SharedSink`]): the machine, the cache
//! hierarchy, the tag controller, and the kernel each hold a clone of
//! the same handle and all feed one stream.

use crate::event::TraceEvent;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::rc::Rc;

/// A consumer of architectural trace events.
pub trait Sink {
    /// Delivers one event. Called only when [`Sink::enabled`] is true.
    fn on_event(&mut self, ev: &TraceEvent);

    /// Delivers an out-of-band marker (e.g. "run start: treeadd/cheri").
    /// Sinks that have no use for markers ignore them.
    fn marker(&mut self, _label: &str) {}

    /// Flushes buffered output, if any.
    fn flush(&mut self) {}

    /// Whether events should be constructed and delivered at all.
    /// Emission sites check this before building the event, so a
    /// disabled sink costs one branch per site.
    fn enabled(&self) -> bool {
        true
    }
}

/// Discards everything; reports itself disabled so emission sites skip
/// event construction entirely. Attaching a `NullSink` is equivalent to
/// attaching nothing — the transparency bench measures exactly this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl Sink for NullSink {
    fn on_event(&mut self, _ev: &TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Keeps the last *N* events for post-mortem inspection (e.g. "what led
/// up to this capability exception?").
#[derive(Clone, Debug)]
pub struct RingBufferSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> RingBufferSink {
        let capacity = capacity.max(1);
        RingBufferSink { buf: VecDeque::with_capacity(capacity), capacity, dropped: 0 }
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.buf
    }

    /// How many events were evicted to make room.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Sink for RingBufferSink {
    fn on_event(&mut self, ev: &TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(*ev);
    }
}

/// Streams events as JSON lines to any writer (file, stdout, Vec).
/// Markers appear as `{"marker":"..."}` lines.
pub struct JsonlSink {
    out: Box<dyn Write>,
    written: u64,
}

impl JsonlSink {
    /// Wraps a writer. Callers should pass something buffered (e.g.
    /// `BufWriter<File>`) — one `write_all` is issued per event.
    #[must_use]
    pub fn new(out: Box<dyn Write>) -> JsonlSink {
        JsonlSink { out, written: 0 }
    }

    /// Creates the file at `path` (truncating) and streams to it.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Events written so far.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink").field("written", &self.written).finish_non_exhaustive()
    }
}

impl Sink for JsonlSink {
    fn on_event(&mut self, ev: &TraceEvent) {
        let mut line = ev.to_json();
        line.push('\n');
        // Trace output is best-effort observation; an I/O error must not
        // perturb the simulated machine, so it is swallowed here and
        // surfaced by the final flush if persistent.
        let _ = self.out.write_all(line.as_bytes());
        self.written += 1;
    }

    fn marker(&mut self, label: &str) {
        let mut w = crate::json::JsonWriter::object();
        w.str_field("marker", label);
        let mut line = w.close();
        line.push('\n');
        let _ = self.out.write_all(line.as_bytes());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// All sink shapes behind one statically dispatched enum, so the hot
/// emission path never goes through a vtable.
#[derive(Debug)]
pub enum AnySink {
    /// Discard (disabled).
    Null(NullSink),
    /// Last-N ring buffer.
    Ring(RingBufferSink),
    /// JSON-lines stream.
    Jsonl(JsonlSink),
}

impl Sink for AnySink {
    fn on_event(&mut self, ev: &TraceEvent) {
        match self {
            AnySink::Null(s) => s.on_event(ev),
            AnySink::Ring(s) => s.on_event(ev),
            AnySink::Jsonl(s) => s.on_event(ev),
        }
    }

    fn marker(&mut self, label: &str) {
        match self {
            AnySink::Null(s) => s.marker(label),
            AnySink::Ring(s) => s.marker(label),
            AnySink::Jsonl(s) => s.marker(label),
        }
    }

    fn flush(&mut self) {
        match self {
            AnySink::Null(s) => s.flush(),
            AnySink::Ring(s) => s.flush(),
            AnySink::Jsonl(s) => s.flush(),
        }
    }

    fn enabled(&self) -> bool {
        match self {
            AnySink::Null(s) => s.enabled(),
            AnySink::Ring(s) => s.enabled(),
            AnySink::Jsonl(s) => s.enabled(),
        }
    }
}

/// The shared handle instrumented components hold. `Rc` because the
/// whole simulator is single-threaded; cloning the handle clones the
/// *reference*, so every component feeds the same sink.
pub type SharedSink = Rc<RefCell<AnySink>>;

/// Wraps a sink into the shared handle form.
#[must_use]
pub fn shared(sink: AnySink) -> SharedSink {
    Rc::new(RefCell::new(sink))
}

/// Normalizes a sink handle for attachment: a disabled sink (a
/// [`NullSink`]) is equivalent to no sink at all, so instrumented components store `None` for it
/// and the per-event cost collapses to the bare `Option` check — the
/// "tracing off" configuration runs the exact baseline code path.
/// Sinks never change their enabled state after construction, so this
/// is safe to decide once.
#[must_use]
pub fn active(sink: Option<SharedSink>) -> Option<SharedSink> {
    sink.filter(|s| s.borrow().enabled())
}

/// Emits an event through an optional sink handle. The event closure
/// runs only when a sink is attached *and* enabled — with no sink (or a
/// [`NullSink`]) the cost is the `Option` check plus one load.
#[inline]
pub fn emit(sink: &Option<SharedSink>, make: impl FnOnce() -> TraceEvent) {
    if let Some(handle) = sink {
        let mut s = handle.borrow_mut();
        if s.enabled() {
            let ev = make();
            s.on_event(&ev);
        }
    }
}

/// Sends an out-of-band marker through an optional sink handle.
pub fn marker(sink: &Option<SharedSink>, label: &str) {
    if let Some(handle) = sink {
        handle.borrow_mut().marker(label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CacheLevel;

    #[test]
    fn jsonl_writes_one_line_per_event_plus_markers() {
        let buf: Rc<RefCell<Vec<u8>>> = Rc::default();
        struct Tee(Rc<RefCell<Vec<u8>>>);
        impl Write for Tee {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Box::new(Tee(buf.clone())));
        sink.marker("run start: treeadd/cheri");
        sink.on_event(&TraceEvent::CacheAccess {
            level: CacheLevel::L1I,
            write: false,
            hit: true,
            writeback: false,
        });
        sink.flush();
        let text = String::from_utf8(buf.borrow().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"marker":"run start: treeadd/cheri"}"#);
        assert!(lines[1].contains(r#""ev":"cache""#));
        assert_eq!(sink.written(), 1);
    }
}
