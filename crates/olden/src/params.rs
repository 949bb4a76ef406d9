//! Benchmark problem sizes.

/// Problem sizes for the guest workloads: the four Olden kernels, the
/// native-only limit-study workloads, and the `cheri-work` runtime
/// workloads (`vmloop`, `allocstress`).
///
/// The name is historical — the struct predates the non-Olden
/// workloads and every surface (sweep matrix, serve protocol, reports)
/// already spells it this way.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OldenParams {
    /// `treeadd` tree depth (paper: `treeadd 21 1 0`).
    pub treeadd_depth: u32,
    /// `bisort`: log2 of the number of sorted values (paper:
    /// `bisort 250000` ≈ 2^18).
    pub bisort_log2: u32,
    /// `perimeter`: quadtree levels (paper: `perimeter 12`).
    pub perimeter_levels: u32,
    /// `mst` vertex count (paper: `mst 1024`).
    pub mst_vertices: u32,
    /// `mst`: extra pseudo-random edges per vertex (besides the spanning
    /// chain).
    pub mst_degree: u32,
    /// `em3d` node count per field (native limit study only).
    pub em3d_nodes: u32,
    /// `em3d` dependencies per node.
    pub em3d_degree: u32,
    /// `em3d` iterations.
    pub em3d_iters: u32,
    /// `health` hierarchy levels (native only).
    pub health_levels: u32,
    /// `health` simulation steps.
    pub health_steps: u32,
    /// `power` feeders (native only).
    pub power_feeders: u32,
    /// `vmloop`: repetitions of the bytecode-program suite.
    pub vm_iters: u32,
    /// `vmloop`: the iterative-fibonacci program's argument.
    pub vm_fib: u32,
    /// `vmloop`: elements bubble-sorted by the sort program.
    pub vm_sort: u32,
    /// `vmloop`: bytes hashed by the string-hash program.
    pub vm_hash: u32,
    /// `allocstress`: arena capacity in slots.
    pub alloc_slots: u32,
    /// `allocstress`: churn operations (alloc/free/scan mix).
    pub alloc_ops: u32,
    /// `allocstress`: width of the live-object root table.
    pub alloc_roots: u32,
}

impl OldenParams {
    /// The paper's evaluation parameters (Section 8: "the same
    /// parameters as used in the evaluation of Hardbound").
    #[must_use]
    pub fn paper() -> OldenParams {
        OldenParams {
            treeadd_depth: 21,
            bisort_log2: 18,
            perimeter_levels: 12,
            mst_vertices: 1024,
            mst_degree: 8,
            em3d_nodes: 2000,
            em3d_degree: 10,
            em3d_iters: 30,
            health_levels: 5,
            health_steps: 60,
            power_feeders: 16,
            vm_iters: 8,
            vm_fib: 64,
            vm_sort: 96,
            vm_hash: 2048,
            alloc_slots: 1024,
            alloc_ops: 60_000,
            alloc_roots: 64,
        }
    }

    /// Reduced sizes for quick runs and CI (same shapes, minutes →
    /// milliseconds).
    #[must_use]
    pub fn scaled() -> OldenParams {
        OldenParams {
            treeadd_depth: 12,
            bisort_log2: 10,
            perimeter_levels: 7,
            mst_vertices: 128,
            mst_degree: 6,
            em3d_nodes: 200,
            em3d_degree: 6,
            em3d_iters: 8,
            health_levels: 3,
            health_steps: 12,
            power_feeders: 4,
            vm_iters: 2,
            vm_fib: 24,
            vm_sort: 16,
            vm_hash: 96,
            alloc_slots: 192,
            alloc_ops: 1500,
            alloc_roots: 16,
        }
    }

    /// Medium sizes: large enough that the memory hierarchy dominates
    /// (the regime Figures 4–5 study) while a full three-mode sweep
    /// stays under a minute of host time. The default for the figure
    /// harnesses; `--paper` selects [`OldenParams::paper`].
    #[must_use]
    pub fn medium() -> OldenParams {
        OldenParams {
            treeadd_depth: 18,
            bisort_log2: 14,
            perimeter_levels: 11,
            mst_vertices: 512,
            mst_degree: 8,
            em3d_nodes: 1000,
            em3d_degree: 8,
            em3d_iters: 15,
            health_levels: 4,
            health_steps: 30,
            power_feeders: 8,
            vm_iters: 4,
            vm_fib: 48,
            vm_sort: 48,
            vm_hash: 768,
            alloc_slots: 512,
            alloc_ops: 12_000,
            alloc_roots: 32,
        }
    }

    /// Intermediate sizes used by the Figure 5 heap-size sweep, where
    /// `treeadd_depth` etc. are varied explicitly.
    #[must_use]
    pub fn with_treeadd_depth(mut self, depth: u32) -> OldenParams {
        self.treeadd_depth = depth;
        self
    }
}

impl Default for OldenParams {
    /// The scaled (fast) parameters.
    fn default() -> OldenParams {
        OldenParams::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_match_section_8() {
        let p = OldenParams::paper();
        assert_eq!(p.treeadd_depth, 21);
        assert_eq!(p.perimeter_levels, 12);
        assert_eq!(p.mst_vertices, 1024);
        // bisort 250000 values ~ 2^18 = 262144.
        assert!((1u64 << p.bisort_log2) >= 250_000);
    }

    #[test]
    fn scaled_is_smaller_everywhere() {
        let p = OldenParams::paper();
        let s = OldenParams::scaled();
        assert!(s.treeadd_depth < p.treeadd_depth);
        assert!(s.bisort_log2 < p.bisort_log2);
        assert!(s.perimeter_levels < p.perimeter_levels);
        assert!(s.mst_vertices < p.mst_vertices);
        assert!(s.vm_iters < p.vm_iters);
        assert!(s.vm_sort < p.vm_sort);
        assert!(s.alloc_ops < p.alloc_ops);
    }

    #[test]
    fn builder_overrides_depth() {
        let p = OldenParams::scaled().with_treeadd_depth(16);
        assert_eq!(p.treeadd_depth, 16);
    }

    #[test]
    fn allocstress_presets_keep_the_arena_deeper_than_the_live_set() {
        // The root table can pin at most `roots × 8` slots (chain depth
        // is capped at 8 in the workload); the arena must exceed that
        // or the guest allocator runs dry mid-churn.
        for p in [OldenParams::scaled(), OldenParams::medium(), OldenParams::paper()] {
            assert!(p.alloc_slots > p.alloc_roots * 8, "{p:?}");
        }
    }
}
