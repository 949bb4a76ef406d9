//! # cheri-trace — unified tracing for the CHERI reproduction
//!
//! Every quantity the paper measures (the Figure 4/5 overheads, the
//! §4.2 tag-cache behaviour, the §8 ablations) is an architectural
//! event count. The simulator's own counters (`beri_sim::Stats`, the
//! cache hierarchy, `TagCacheStats`) are the one aggregate of those
//! counts: `Kernel::metrics` reads them into a [`Snapshot`] under the
//! canonical [`names`], with mechanical [`Snapshot::diff`] between runs.
//! This crate gives the events behind them one vocabulary
//! ([`TraceEvent`]) and one delivery mechanism (the [`Sink`] trait and
//! the statically dispatched [`AnySink`]) for per-event consumers — a
//! JSONL stream or a ring buffer — plus the one Chrome trace-event
//! writer ([`chrome`]) every timeline in the workspace renders through.
//!
//! ## Design constraints
//!
//! * **No external dependencies.** JSON lines are written and parsed by
//!   the hand-rolled [`json`] module; no serde.
//! * **Near-zero cost when disabled.** Instrumented components cache a
//!   single `bool` derived from [`Sink::enabled`]; with no sink attached
//!   (or a [`NullSink`]) the hot path is one predictable branch and the
//!   event value is never even constructed — emission sites take an
//!   `FnOnce() -> TraceEvent` via [`emit`].
//! * **Observational transparency.** Sinks only observe; nothing in
//!   this crate feeds back into architectural state. An integration
//!   test in `cheri-bench` asserts that a traced run and an
//!   un-instrumented run of an Olden workload reach bit-identical
//!   architectural end-states.
//! * **A complete stream.** Every event is emitted adjacent to the
//!   counter increment it mirrors, so counting a JSONL stream's lines
//!   by event kind reproduces the counters exactly — the same
//!   integration test asserts it for every counter in [`names`].
//!
//! ## Quick use
//!
//! ```
//! use cheri_trace::{shared, AnySink, emit, RingBufferSink, TraceEvent};
//!
//! let sink = shared(AnySink::Ring(RingBufferSink::new(16)));
//! let attached = Some(sink.clone());
//! emit(&attached, || TraceEvent::Syscall { nr: 4, cycles: 120 });
//! let kept = match &*sink.borrow() {
//!     AnySink::Ring(r) => r.events().len(),
//!     _ => unreachable!(),
//! };
//! assert_eq!(kept, 1);
//! ```

// Library paths must report errors, not abort: every fallible path
// returns Result or uses expect with a stated invariant. Tests may
// unwrap freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod chrome;
mod event;
pub mod json;
mod metrics;
mod sink;

pub use event::{CacheLevel, SpanKind, TraceEvent};
pub use metrics::{Snapshot, SnapshotDiff};
pub use sink::{
    active, emit, marker, shared, AnySink, JsonlSink, NullSink, RingBufferSink, SharedSink, Sink,
};

/// Canonical counter names: the keys `beri_sim::Machine::metrics` and
/// `Kernel::metrics` export the simulator's counters under.
pub mod names {
    /// Instructions retired.
    pub const INSTRUCTIONS: &str = "sim.instructions";
    /// Capability instructions retired.
    pub const CAP_INSTRUCTIONS: &str = "sim.cap_instructions";
    /// L1 instruction-cache hits/misses/writebacks.
    pub const L1I_HITS: &str = "cache.l1i.hits";
    pub const L1I_MISSES: &str = "cache.l1i.misses";
    pub const L1I_WRITEBACKS: &str = "cache.l1i.writebacks";
    /// L1 data-cache hits/misses/writebacks.
    pub const L1D_HITS: &str = "cache.l1d.hits";
    pub const L1D_MISSES: &str = "cache.l1d.misses";
    pub const L1D_WRITEBACKS: &str = "cache.l1d.writebacks";
    /// Unified L2 hits/misses/writebacks.
    pub const L2_HITS: &str = "cache.l2.hits";
    pub const L2_MISSES: &str = "cache.l2.misses";
    pub const L2_WRITEBACKS: &str = "cache.l2.writebacks";
    /// TLB refills taken.
    pub const TLB_REFILLS: &str = "tlb.refills";
    /// Tag-table (§4.2) reads and writes.
    pub const TAG_TABLE_READS: &str = "tag.table.reads";
    pub const TAG_TABLE_WRITES: &str = "tag.table.writes";
    /// Tag-cache hits/misses/writebacks.
    pub const TAG_CACHE_HITS: &str = "tag.cache.hits";
    pub const TAG_CACHE_MISSES: &str = "tag.cache.misses";
    pub const TAG_CACHE_WRITEBACKS: &str = "tag.cache.writebacks";
    /// Capability exceptions raised.
    pub const CAP_EXCEPTIONS: &str = "cap.exceptions";
    /// Syscalls serviced by the kernel.
    pub const SYSCALLS: &str = "os.syscalls";
    /// Address-space context switches.
    pub const CONTEXT_SWITCHES: &str = "os.context_switches";
    /// Protection-domain calls and returns (CCall/CReturn model).
    pub const DOMAIN_CALLS: &str = "os.domain_calls";
    pub const DOMAIN_RETURNS: &str = "os.domain_returns";
    /// Data-side memory operations observed at retire.
    pub const LOADS: &str = "mem.loads";
    pub const STORES: &str = "mem.stores";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_reports_disabled_and_skips_event_construction() {
        let sink = shared(AnySink::Null(NullSink));
        let attached = Some(sink);
        let mut built = false;
        emit(&attached, || {
            built = true;
            TraceEvent::TlbRefill { vaddr: 0, cycles: 30 }
        });
        assert!(!built, "NullSink must not force event construction");
    }

    #[test]
    fn ring_buffer_keeps_last_n() {
        let mut ring = RingBufferSink::new(3);
        for i in 0..8u64 {
            ring.on_event(&TraceEvent::Retire { pc: i, cap: false });
        }
        let pcs: Vec<u64> = ring
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Retire { pc, .. } => *pc,
                _ => panic!("unexpected event"),
            })
            .collect();
        assert_eq!(pcs, vec![5, 6, 7]);
    }

    #[test]
    fn snapshot_roundtrip_and_diff() {
        let mut a = Snapshot::default();
        a.set_counter(names::TLB_REFILLS, 7);
        a.set_counter(names::SYSCALLS, 2);
        let mut b = a.clone();
        b.set_counter(names::TLB_REFILLS, 12);

        let back = Snapshot::from_json(&a.to_json()).expect("parse own output");
        assert_eq!(back, a);

        let d = a.diff(&b);
        let tlb = d.entries().iter().find(|e| e.0 == names::TLB_REFILLS).expect("tlb in diff");
        assert_eq!((tlb.1, tlb.2), (7, 12));
        assert_eq!(tlb.3, 5);
        let sys = d.entries().iter().find(|e| e.0 == names::SYSCALLS).unwrap();
        assert_eq!(sys.3, 0);
    }
}
