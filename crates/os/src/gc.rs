//! Tag-driven capability tracing — the Section 11 temporal-safety
//! sketch.
//!
//! "The presence of tagged memory also provides opportunities to enforce
//! temporal safety. Tags allow us to identify all references, so we can
//! provide accurate garbage collection to low-level languages such as C.
//! Possibilities include a non-reuse allocator (to eliminate most
//! dangling pointer errors) that periodically runs a tracing pass to
//! identify reusable address space."
//!
//! [`Kernel::gc_trace`] implements that tracing pass: starting from the
//! capability register file, it follows every *tagged* granule inside
//! every reachable region — tags make the scan precise, with no
//! conservative pointer guessing — and reports which part of the heap is
//! still referenced. A non-reuse (bump) allocator, which is exactly what
//! `cheri-cc` programs use, can then recycle the unreachable remainder.

use std::collections::HashSet;

use beri_sim::tlb::PAGE_SIZE;
use cheri_core::{Capability, TAG_GRANULE};

use crate::kernel::Kernel;

/// The result of a capability tracing pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Distinct tagged capabilities encountered (registers + memory).
    pub live_capabilities: usize,
    /// Reachable regions, as merged, sorted `[base, end)` virtual
    /// intervals.
    pub reachable: Vec<(u64, u64)>,
    /// Heap bytes between the heap base and the allocator's bump pointer
    /// that no reachable capability covers — the space a non-reuse
    /// allocator could recycle.
    pub reclaimable_heap_bytes: u64,
}

fn merge(mut spans: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    spans.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (b, e) in spans {
        match out.last_mut() {
            Some(last) if b <= last.1 => last.1 = last.1.max(e),
            _ => out.push((b, e)),
        }
    }
    out
}

impl Kernel {
    /// Runs a precise capability tracing pass over the current process.
    ///
    /// Roots are the 32 capability registers plus `PCC`; the scan
    /// follows tagged granules through memory (via the kernel's page
    /// tables and the physical tag table, without disturbing the tag
    /// cache statistics). Untagged data — even if it is bit-identical
    /// to a capability — is never followed: that is the precision the
    /// paper's tags buy.
    #[must_use]
    pub fn gc_trace(&mut self) -> GcReport {
        let mut worklist: Vec<Capability> = Vec::new();
        let cpu = &self.machine().cpu;
        for c in cpu.caps.iter() {
            if c.tag() {
                worklist.push(*c);
            }
        }
        if cpu.caps.pcc().tag() {
            worklist.push(*cpu.caps.pcc());
        }

        let mut seen: HashSet<(u64, u64, u32)> = HashSet::new();
        let mut live = 0usize;
        let mut spans = Vec::new();
        while let Some(cap) = worklist.pop() {
            let key = (cap.base(), cap.length(), cap.perms().bits());
            if !seen.insert(key) {
                continue;
            }
            live += 1;
            let end = cap.top().min(u128::from(u64::MAX)) as u64;
            spans.push((cap.base(), end));
            // Scan the region's mapped granules for further tagged
            // capabilities.
            let first = cap.base() / TAG_GRANULE * TAG_GRANULE;
            let mut g = first;
            while g < end {
                if let Some(paddr) = self.translate_for_gc(g) {
                    if self.tag_at(paddr) {
                        if let Ok(inner) = self.read_cap_raw_for_gc(paddr) {
                            if inner.tag() {
                                worklist.push(inner);
                            }
                        }
                    }
                    g += TAG_GRANULE;
                } else {
                    // Unmapped page: skip to the next one.
                    g = (g / PAGE_SIZE + 1) * PAGE_SIZE;
                }
            }
        }

        let reachable = merge(spans);
        // Reclaimable = allocated heap minus reachable coverage.
        let heap_base = self.layout().heap_base;
        let heap_end = heap_base + self.heap_used().unwrap_or(0);
        let mut covered = 0u64;
        for (b, e) in &reachable {
            let lo = (*b).max(heap_base);
            let hi = (*e).min(heap_end);
            if lo < hi {
                covered += hi - lo;
            }
        }
        GcReport {
            live_capabilities: live,
            reachable,
            reclaimable_heap_bytes: (heap_end - heap_base).saturating_sub(covered),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_combines_overlaps() {
        assert_eq!(merge(vec![(10, 20), (15, 30), (40, 50), (50, 60)]), vec![(10, 30), (40, 60)]);
        assert_eq!(merge(vec![]), vec![]);
    }
}
