//! Shared by the root integration tests: run a kernel's current process
//! with the guest profiler and a JSONL trace sink attached, and read
//! back the guest spans each of them recorded.

use std::cell::RefCell;
use std::io;
use std::rc::Rc;

use cheri::os::{Kernel, RunOutcome};
use cheri::prof::Profiler;
use cheri::trace::chrome::Ph;
use cheri::trace::{json, shared, JsonlSink};

/// A writer whose bytes stay readable after the sink owning it is gone.
#[derive(Clone, Default)]
struct Buffer(Rc<RefCell<Vec<u8>>>);

impl io::Write for Buffer {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One span edge: `true` for a begin, and the span's name
/// (`"phase 1"`, `"domain 0"`).
pub type Edge = (bool, String);

/// What one observed run produced.
pub struct Observed {
    pub outcome: RunOutcome,
    /// Span edges in the JSONL event stream, in order.
    pub stream: Vec<Edge>,
    /// Span edges on the profiler timeline, in order.
    pub timeline: Vec<Edge>,
}

/// Runs the kernel's current process to completion with a profiler and
/// a JSONL sink attached, then detaches both.
pub fn run_observed(kernel: &mut Kernel) -> Observed {
    let buf = Buffer::default();
    kernel.set_trace_sink(Some(shared(JsonlSink::new(Box::new(buf.clone())))));
    kernel.machine_mut().set_profiler(Some(Box::new(Profiler::new())));
    let outcome = kernel.run().unwrap();
    let report = kernel.machine_mut().take_profiler().unwrap().into_report();
    kernel.set_trace_sink(None);

    let text = String::from_utf8(buf.0.borrow().clone()).unwrap();
    let stream = text
        .lines()
        .filter_map(|line| {
            let parsed = json::parse(line).unwrap();
            let ev = parsed.as_obj().unwrap();
            let begin = match ev["ev"].as_str().unwrap() {
                "span_begin" => true,
                "span_end" => false,
                _ => return None,
            };
            let name = format!("{} {}", ev["kind"].as_str().unwrap(), ev["id"].as_u64().unwrap());
            Some((begin, name))
        })
        .collect();
    let timeline = report
        .timeline
        .events()
        .iter()
        .filter_map(|e| match e.ph {
            Ph::Begin => Some((true, e.name.clone())),
            Ph::End => Some((false, e.name.clone())),
            _ => None,
        })
        .collect();
    Observed { outcome, stream, timeline }
}

/// Builds the expected edge list from `("+name" | "-name")` shorthand.
pub fn edges(spec: &[&str]) -> Vec<Edge> {
    spec.iter().map(|s| (s.starts_with('+'), s[1..].to_string())).collect()
}
