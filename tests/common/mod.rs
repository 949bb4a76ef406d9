//! Shared by the root integration tests: run a kernel's current process
//! with the guest profiler attached, and read back the guest spans its
//! timeline recorded.

use cheri::os::{Kernel, RunOutcome};
use cheri::prof::Profiler;
use cheri::trace::chrome::Ph;

/// One span edge: `true` for a begin, and the span's name
/// (`"phase 1"`, `"domain 0"`).
pub type Edge = (bool, String);

/// What one observed run produced.
pub struct Observed {
    pub outcome: RunOutcome,
    /// Span edges on the profiler timeline, in order.
    pub timeline: Vec<Edge>,
}

/// Runs the kernel's current process to completion with a profiler
/// attached, then detaches it.
pub fn run_observed(kernel: &mut Kernel) -> Observed {
    kernel.machine_mut().set_profiler(Some(Box::new(Profiler::new())));
    let outcome = kernel.run().unwrap();
    let report = kernel.machine_mut().take_profiler().unwrap().into_report();
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
    Observed { outcome, timeline }
}

/// Builds the expected edge list from `("+name" | "-name")` shorthand.
pub fn edges(spec: &[&str]) -> Vec<Edge> {
    spec.iter().map(|s| (s.starts_with('+'), s[1..].to_string())).collect()
}
