//! The snapshot pool: pre-booted phase-2 machine states, one per job
//! configuration, that workers clone-and-resume for warm execution.
//!
//! Every Olden workload issues `SYS_PHASE 2` when its computation phase
//! begins, so a snapshot at that boundary has compilation, exec, and
//! allocation already paid for ([`cheri_sweep::WARM_SNAPSHOT_PHASE`];
//! [`cheri_sweep::Mode::BootOnly`] boots to it). The pool maps a job's
//! canonical configuration
//! ([`cheri_sweep::JobSpec::canonical_json`]) to that snapshot plus
//! its [`StateHash`]; the hash feeds the result-cache key,
//! binding every cached result to the exact state it was computed from.
//!
//! Entries are immutable once inserted (`Arc`-shared, read-only), so any
//! number of workers can resume from the same snapshot concurrently.
//! The simulator is deterministic, so a second cold run of the same
//! configuration reproduces the same snapshot byte-for-byte; the pool
//! keeps the first entry and drops duplicates, making racing inserts
//! harmless.

use cheri_snap::{Snapshot, StateHash};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One pooled pre-boot: the phase-2 snapshot and its canonical hash.
pub struct PoolEntry {
    /// The machine+kernel state at the allocation → computation
    /// boundary.
    pub snapshot: Snapshot,
    /// [`StateHash`] of the snapshot's canonical serialization,
    /// computed once at insertion.
    pub hash: StateHash,
}

/// A thread-safe map from canonical job configuration to pooled
/// snapshot.
#[derive(Default)]
pub struct SnapshotPool {
    map: Mutex<HashMap<String, Arc<PoolEntry>>>,
}

impl SnapshotPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> SnapshotPool {
        SnapshotPool::default()
    }

    /// Looks up the entry for a canonical configuration.
    #[must_use]
    pub fn get(&self, canonical_config: &str) -> Option<Arc<PoolEntry>> {
        self.map.lock().map_or(None, |m| m.get(canonical_config).cloned())
    }

    /// Inserts a snapshot (hashing it once) and returns the resident
    /// entry. If another worker won the race, the existing entry is
    /// returned and the duplicate dropped — deterministic execution
    /// makes the two byte-identical anyway.
    pub fn insert(&self, canonical_config: String, snapshot: Snapshot) -> Arc<PoolEntry> {
        let hash = snapshot.state_hash();
        let entry = Arc::new(PoolEntry { snapshot, hash });
        match self.map.lock() {
            Ok(mut m) => m.entry(canonical_config).or_insert(entry).clone(),
            Err(_) => entry,
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
    use cheri_sweep::{run_job, JobSpec, Mode, StrategyKind};
    use cheri_work::Workload;

    #[test]
    fn pool_insert_is_first_writer_wins() {
        let spec = JobSpec::new(Workload::Treeadd, StrategyKind::Mips, OldenParams::scaled());
        let run = run_job(&spec, spec.machine_config(), Mode::BootOnly, None, &mut |_, _| {});
        let snap = run.unwrap().snapshot.expect("treeadd reaches phase 2");
        let pool = SnapshotPool::new();
        let canon = spec.canonical_json();
        let first = pool.insert(canon.clone(), snap.clone());
        let second = pool.insert(canon.clone(), snap);
        assert!(Arc::ptr_eq(&first, &second), "duplicate insert must return the resident entry");
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.get(&canon).unwrap().hash, first.hash);
        assert!(pool.get("other").is_none());
    }
}
