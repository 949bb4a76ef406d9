//! The content-hashed result cache: identical work is executed once.
//!
//! A cache key binds together everything that determines a job's
//! result: the job's complete canonical configuration
//! ([`JobSpec::canonical_json`] — workload, strategy, tag-cache size,
//! variant, every problem-size parameter) and the [`StateHash`] of the
//! pooled phase-2 snapshot the job would execute from. The simulator is
//! deterministic, so (config, start state) → result is a pure function
//! and a hit can be served as stored bytes without re-execution.
//!
//! Hashing the *canonical* config — not the request's raw bytes — means
//! two clients spelling the same job with different JSON field order,
//! whitespace, or strategy aliases dedup onto one entry. Folding the
//! snapshot hash in means a pool rebuilt from different state (a changed
//! simulator, a different parameter preset) can never serve a stale
//! result: the key changes with the state.
//!
//! Entries are [`StoredRecord`]s behind an [`Arc`]: the record plus the
//! JSON a `record` event carries, rendered once when the record was
//! computed. A hit is a refcount bump, and its reply is those bytes.

use cheri_snap::StateHash;
use cheri_sweep::{JobRecord, JobSpec};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A finished job's record and its serialised form
/// ([`JobRecord::to_json`]), kept together so a cache hit never
/// re-serialises.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredRecord {
    /// The record (sweeps assemble reports from it).
    pub record: JobRecord,
    /// `record.to_json()`: the bytes served for it.
    pub json: String,
}

/// The [`StateHash`] used when a job has no pooled snapshot (the
/// workload exits before the phase-2 boundary, so every execution is a
/// full cold run from the same empty prefix).
pub const NO_SNAPSHOT: StateHash = StateHash(0);

/// Computes the result-cache key for a job: FNV-1a over the canonical
/// configuration followed by the snapshot hash. The two halves are
/// joined with a `#snap=` separator so neither can masquerade as part
/// of the other.
#[must_use]
pub fn cache_key(spec: &JobSpec, snap: StateHash) -> u64 {
    cache_key_canonical(&spec.canonical_json(), snap)
}

/// As [`cache_key`], from an already-canonicalised configuration (the
/// engine canonicalises once per execution and reuses the string).
#[must_use]
pub fn cache_key_canonical(canonical_config: &str, snap: StateHash) -> u64 {
    let mut text = String::with_capacity(canonical_config.len() + 24);
    text.push_str(canonical_config);
    text.push_str("#snap=");
    text.push_str(&snap.to_string());
    StateHash::of_bytes(text.as_bytes()).0
}

/// A thread-safe result cache. Hits and misses are not counted here: a
/// hit is exactly one `serve_jobs_cached_total` in the telemetry
/// registry.
#[derive(Default)]
pub struct ResultCache {
    map: Mutex<HashMap<u64, Arc<StoredRecord>>>,
}

impl ResultCache {
    /// Looks a key up. A hit shares the stored entry.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<Arc<StoredRecord>> {
        self.map.lock().map_or(None, |m| m.get(&key).cloned())
    }

    /// Stores a record. Two workers racing on the same key store
    /// byte-identical records — the simulator is deterministic — so
    /// last-write-wins is harmless.
    pub fn store(&self, key: u64, record: &Arc<StoredRecord>) {
        if let Ok(mut m) = self.map.lock() {
            m.insert(key, Arc::clone(record));
        }
    }

    /// Resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().map_or(0, |m| m.len())
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_olden::OldenParams;
    use cheri_sweep::StrategyKind;
    use cheri_work::Workload;
    use std::collections::BTreeMap;

    fn record(key: &str) -> Arc<StoredRecord> {
        let record = JobRecord {
            key: key.to_string(),
            workload: "treeadd".into(),
            strategy: "cheri".into(),
            cap_bits: 256,
            tag_cache_kb: 8,
            checksums: vec![42],
            counters: BTreeMap::new(),
        };
        let json = record.to_json();
        Arc::new(StoredRecord { record, json })
    }

    #[test]
    fn a_hit_shares_the_stored_entry() {
        let cache = ResultCache::default();
        assert_eq!(cache.lookup(1), None);
        let stored = record("a");
        cache.store(1, &stored);
        let hit = cache.lookup(1).unwrap();
        assert!(Arc::ptr_eq(&hit, &stored), "a hit shares the stored entry, never a copy");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn key_separates_config_from_snapshot() {
        let spec = JobSpec::new(Workload::Treeadd, StrategyKind::Cheri256, OldenParams::scaled());
        let k1 = cache_key(&spec, NO_SNAPSHOT);
        let k2 = cache_key(&spec, StateHash(1));
        assert_ne!(k1, k2, "snapshot hash must contribute to the key");
        let other = JobSpec::new(Workload::Mst, StrategyKind::Cheri256, OldenParams::scaled());
        assert_ne!(cache_key(&other, NO_SNAPSHOT), k1, "config must contribute to the key");
        assert_eq!(cache_key(&spec, NO_SNAPSHOT), k1, "key must be stable");
        // Every workload (including the runtime-system pair) keys to a
        // distinct entry at the same strategy/params.
        let keys: Vec<u64> = Workload::ALL
            .into_iter()
            .map(|w| {
                let s = JobSpec::new(w, StrategyKind::Cheri256, OldenParams::scaled());
                cache_key(&s, NO_SNAPSHOT)
            })
            .collect();
        let unique: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
        assert_eq!(unique.len(), keys.len(), "workloads must not collide in the cache");
    }
}
