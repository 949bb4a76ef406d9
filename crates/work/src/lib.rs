//! Runtime-system guest workloads and the workload registry.
//!
//! The four Olden kernels chase trees; real language runtimes stress
//! different pointer paths. This crate adds the two workloads the
//! bytecode-interpreter and CRuby-porting CHERI papers identify as the
//! interesting cases — `vmloop` (a guest bytecode VM whose dispatch
//! loop and VM state live behind pointers) and `allocstress` (a
//! free-list allocator with slot reuse, so capabilities are constantly
//! re-derived over recycled memory) — and the [`Workload`] registry
//! that presents all six workloads to every harness through one table:
//! the sweep matrix, the figure binaries, the profiler, the snapshot
//! pool, and `cheri-serve` all iterate [`Workload::ALL`] and index
//! [`REGISTRY`], so adding a workload is one entry here, not N match
//! arms scattered across binaries.
//!
//! The Olden rows call the module builders of `cheri_olden::dsl`
//! directly; each row gives its heap bytes, and
//! [`Workload::mem_needed`] turns heap into machine memory by one rule.
//! [`native::WORKLOADS`] is the one list of native kernels.

pub mod allocstress;
pub mod native;
pub mod vmloop;

use cheri_cc::ir::Module;
use cheri_cc::strategy::PtrStrategy;
use cheri_olden::dsl::{bisort, mst, perimeter, treeadd};
use cheri_olden::OldenParams;

/// One guest workload: the four Olden kernels plus the two
/// runtime-system workloads defined in this crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Bitonic sort over a perfect binary tree (Olden).
    Bisort,
    /// Minimum spanning tree with per-vertex hash tables (Olden).
    Mst,
    /// Recursive binary-tree summation (Olden).
    Treeadd,
    /// Quadtree image perimeter (Olden).
    Perimeter,
    /// Guest bytecode VM: dispatch loop + pointer-held VM state.
    Vmloop,
    /// Free-list allocator churn with slot reuse and pointer scans.
    Allocstress,
}

/// Everything a harness needs to run a workload, looked up by
/// [`Workload::info`]. One row per workload in [`REGISTRY`].
pub struct WorkloadInfo {
    /// The canonical name (report keys, CLI flags, wire protocol).
    pub name: &'static str,
    /// Builds the IR module at the given problem size.
    pub module: fn(&OldenParams) -> Module,
    /// Heap bytes the workload allocates under the strategy's pointer
    /// size, with worst-case per-object rounding ([`Workload::mem_needed`]
    /// adds the headroom).
    pub heap_bytes: fn(&OldenParams, &dyn PtrStrategy) -> u64,
    /// The Figure-5-style heap-size sweep points: (x-axis label,
    /// params) pairs whose baseline heaps span small → large.
    pub sweep_points: fn() -> Vec<(u32, OldenParams)>,
}

/// The workload table, in canonical report order ([`Workload::ALL`]
/// indexes it by discriminant).
pub const REGISTRY: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "bisort",
        module: |p| bisort::module(p.bisort_log2),
        heap_bytes: |p, s| (1u64 << (p.bisort_log2 + 1)) * tree_node(s),
        sweep_points: || {
            let base = OldenParams::scaled();
            (7..=14).map(|d| (d, OldenParams { bisort_log2: d, ..base })).collect()
        },
    },
    WorkloadInfo {
        name: "mst",
        module: |p| mst::module(p.mst_vertices, p.mst_degree),
        heap_bytes: |p, s| {
            let ptr = s.ptr_size();
            let per_vertex = 16 + 3 * ptr // vertex
                + 16 * ptr // buckets
                + u64::from(2 * (p.mst_degree + 1)) * (16 + 2 * ptr).div_ceil(32) * 32;
            u64::from(p.mst_vertices) * per_vertex * 2
        },
        sweep_points: || {
            let base = OldenParams::scaled();
            [16u32, 32, 64, 128, 256, 512, 1024]
                .iter()
                .map(|&n| (n, OldenParams { mst_vertices: n, ..base }))
                .collect()
        },
    },
    WorkloadInfo {
        name: "treeadd",
        module: |p| treeadd::module(p.treeadd_depth),
        heap_bytes: |p, s| (1u64 << (p.treeadd_depth + 1)) * tree_node(s),
        sweep_points: || {
            let base = OldenParams::scaled();
            (8..=16).map(|d| (d, base.with_treeadd_depth(d))).collect()
        },
    },
    WorkloadInfo {
        name: "perimeter",
        module: |p| perimeter::module(p.perimeter_levels),
        // Nodes scale with the image perimeter, ~O(2^levels · levels).
        heap_bytes: |p, s| (1u64 << p.perimeter_levels) * 64 * (8 + 4 * s.ptr_size()),
        sweep_points: || {
            let base = OldenParams::scaled();
            (7..=12).map(|d| (d, OldenParams { perimeter_levels: d, ..base })).collect()
        },
    },
    WorkloadInfo {
        name: "vmloop",
        module: vmloop::module,
        heap_bytes: vmloop::heap_bytes,
        sweep_points: || {
            let base = OldenParams::scaled();
            [16u32, 32, 64, 128, 256, 512]
                .iter()
                .map(|&n| (n, OldenParams { vm_sort: n, ..base }))
                .collect()
        },
    },
    WorkloadInfo {
        name: "allocstress",
        module: allocstress::module,
        heap_bytes: allocstress::heap_bytes,
        sweep_points: || {
            let base = OldenParams::scaled();
            [128u32, 256, 512, 1024, 2048, 4096]
                .iter()
                .map(|&n| (n, OldenParams { alloc_slots: n, alloc_roots: n / 16, ..base }))
                .collect()
        },
    },
];

/// A binary-tree node (a value and two pointers) with worst-case
/// rounding to a 32-byte allocation granule: `bisort`'s and
/// `treeadd`'s heap unit.
fn tree_node(strategy: &dyn PtrStrategy) -> u64 {
    (8 + 2 * strategy.ptr_size()).div_ceil(32) * 32
}

impl Workload {
    /// Every workload, in canonical report order (Olden four first, in
    /// the paper's Figure 4 order, then the runtime-system pair).
    pub const ALL: [Workload; 6] = [
        Workload::Bisort,
        Workload::Mst,
        Workload::Treeadd,
        Workload::Perimeter,
        Workload::Vmloop,
        Workload::Allocstress,
    ];

    /// This workload's registry row.
    #[must_use]
    pub fn info(self) -> &'static WorkloadInfo {
        &REGISTRY[self as usize]
    }

    /// The canonical name.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// Resolves a workload by its canonical name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the IR module at the given problem size.
    #[must_use]
    pub fn module(self, p: &OldenParams) -> Module {
        (self.info().module)(p)
    }

    /// The physical memory to give the workload under the given
    /// strategy, used to size the machine: its heap rounded up to whole
    /// megabytes, plus 8 MB of headroom.
    #[must_use]
    pub fn mem_needed(self, p: &OldenParams, strategy: &dyn PtrStrategy) -> usize {
        let heap = (self.info().heap_bytes)(p, strategy);
        usize::try_from(heap.div_ceil(1 << 20) + 8).expect("sane size") << 20
    }

    /// The heap-size sweep points (Figure 5 x-axis label, params).
    #[must_use]
    pub fn sweep_points(self) -> Vec<(u32, OldenParams)> {
        (self.info().sweep_points)()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_order_matches_discriminants() {
        for w in Workload::ALL {
            assert_eq!(REGISTRY[w as usize].name, w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nosuch"), None);
    }

    #[test]
    fn every_workload_has_enough_sweep_points() {
        for w in Workload::ALL {
            let points = w.sweep_points();
            assert!(points.len() >= 6, "{}: too few sweep points", w.name());
        }
    }
}
