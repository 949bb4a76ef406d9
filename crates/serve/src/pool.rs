//! The snapshot pool: pre-booted phase-2 machine states, one per job
//! configuration, that workers clone-and-resume for warm execution.
//!
//! Every Olden workload issues `SYS_PHASE 2` when its computation phase
//! begins, so a snapshot at that boundary has compilation, exec, and
//! allocation already paid for ([`cheri_sweep::WARM_SNAPSHOT_PHASE`];
//! [`cheri_sweep::Mode::BootOnly`] boots to it). The pool maps a job's
//! configuration, its [`JobSpec`] compared whole, to that snapshot — the
//! same key the result cache ([`crate::cache`]) uses.
//!
//! Entries are immutable once inserted (`Arc`-shared, read-only), so any
//! number of workers can resume from the same snapshot concurrently.
//! The simulator is deterministic, so a second cold run of the same
//! configuration reproduces the same snapshot byte-for-byte; the pool
//! keeps the first entry and drops duplicates, making racing inserts
//! harmless.

use cheri_snap::Snapshot;
use cheri_sweep::JobSpec;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A thread-safe map from job configuration to pooled phase-2
/// snapshot.
#[derive(Default)]
pub struct SnapshotPool {
    map: Mutex<HashMap<JobSpec, Arc<Snapshot>>>,
}

impl SnapshotPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> SnapshotPool {
        SnapshotPool::default()
    }

    /// Looks up the snapshot for a configuration.
    #[must_use]
    pub fn get(&self, spec: &JobSpec) -> Option<Arc<Snapshot>> {
        self.map.lock().map_or(None, |m| m.get(spec).cloned())
    }

    /// Inserts a snapshot unless the configuration already has one. If
    /// another worker won the race, the duplicate is dropped —
    /// deterministic execution makes the two byte-identical anyway.
    pub fn insert(&self, spec: JobSpec, snapshot: Snapshot) {
        if let Ok(mut m) = self.map.lock() {
            m.entry(spec).or_insert_with(|| Arc::new(snapshot));
        }
    }

    /// Resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().map_or(0, |m| m.len())
    }

    /// Whether the pool is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_olden::OldenParams;
    use cheri_sweep::{run_job, Mode, StrategyKind};
    use cheri_work::Workload;

    #[test]
    fn pool_insert_is_first_writer_wins() {
        let spec = JobSpec::new(Workload::Treeadd, StrategyKind::Mips, OldenParams::scaled());
        let run = run_job(&spec, spec.machine_config(), Mode::BootOnly, None);
        let snap = run.unwrap().snapshot.expect("treeadd reaches phase 2");
        let pool = SnapshotPool::new();
        pool.insert(spec, snap.clone());
        let first = pool.get(&spec).unwrap();
        pool.insert(spec, snap);
        let second = pool.get(&spec).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "a duplicate insert must keep the resident entry");
        assert_eq!(pool.len(), 1);
        assert!(pool.get(&JobSpec { tag_cache_kb: 16, ..spec }).is_none());
    }
}
