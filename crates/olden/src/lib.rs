//! # cheri-olden — the Olden benchmarks for the CHERI reproduction
//!
//! "We used the Olden benchmarks, a suite developed for distributed
//! shared-memory research that has become popular in bounds-checking
//! research due to its focus on pointer-based data structures."
//! (Section 7.)
//!
//! Two forms of each workload:
//!
//! * [`dsl`] — the four benchmarks the paper runs on the FPGA (Section 8:
//!   `bisort`, `mst`, `treeadd`, `perimeter`), written once in the
//!   `cheri-cc` IR and compiled under each pointer strategy — producing
//!   the conventional-MIPS, CCured-style, and CHERI binaries of
//!   Figure 4. Each prints result checksums via `SYS_PRINT` so the
//!   harness can assert all three binaries computed the same answer, and
//!   marks its allocation/computation phases via `SYS_PHASE`. The
//!   workload registry (`cheri_work::REGISTRY`) is their only list;
//!   [`dsl::BenchSession`] runs them.
//! * [`native`] — host-speed implementations running against
//!   [`cheri_limit::TracedHeap`], producing the pointer-event traces the
//!   Figure 3 limit study consumes (including the additional `em3d`,
//!   `health`, and `power` workloads); `cheri_work::native::WORKLOADS`
//!   lists them.
//!
//! [`params::OldenParams`] holds the problem sizes; `paper()` matches the
//! paper's parameters and `scaled()` keeps CI-sized runs fast.

pub mod dsl;
pub mod native;
pub mod params;

pub use params::OldenParams;
