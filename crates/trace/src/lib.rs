//! # cheri-trace — the counter and timeline vocabulary of the CHERI reproduction
//!
//! Every quantity the paper measures (the Figure 4/5 overheads, the
//! §4.2 tag-cache behaviour, the §8 ablations) is an architectural
//! event count. The simulator's own counters (`beri_sim::Stats`, the
//! cache hierarchy, `TagCacheStats`) are the one aggregate of those
//! counts: `Kernel::metrics` reads them into a [`Snapshot`] under the
//! canonical [`names`], with mechanical [`Snapshot::diff`] between runs.
//! The one per-event observer is the guest profiler (`cheri-prof`): it
//! attributes the same counters per PC and draws the guest timeline
//! from the kernel's phase and domain spans ([`SpanKind`]). That
//! timeline and the service's request spans both render through the one
//! Chrome trace-event writer ([`chrome`]).
//!
//! The workspace builds offline, so JSON is written and parsed by the
//! hand-rolled [`json`] module; no serde.

// Library paths must report errors, not abort: every fallible path
// returns Result or uses expect with a stated invariant. Tests may
// unwrap freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod chrome;
pub mod json;
mod metrics;

pub use metrics::{Snapshot, SnapshotDiff};

/// What a guest timeline span brackets. The kernel keeps the open spans
/// and closes them innermost first, each with the kind and id it opened
/// with; the profiler records them on its timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A benchmark phase (between `SYS_PHASE` markers); its id is the
    /// phase id.
    Phase,
    /// A protection-domain activation (between domain call and return);
    /// its id is the registered domain index.
    Domain,
}

impl SpanKind {
    /// Lower-case short name used as the timeline category.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Phase => "phase",
            SpanKind::Domain => "domain",
        }
    }
}

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
