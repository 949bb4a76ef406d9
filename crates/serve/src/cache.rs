//! The result cache: identical work is executed once.
//!
//! The key is the job's complete canonical configuration
//! ([`JobSpec::canonical_json`] — workload, strategy, tag-cache size,
//! variant, every problem-size parameter), stored whole and compared
//! whole, so two configurations can never share an entry. The simulator
//! is deterministic, so a configuration fixes both the phase-2 snapshot
//! a warm run starts from and the result; a hit can be served as
//! stored bytes without re-execution. The snapshot pool
//! ([`crate::pool`]) is keyed by the same string.
//!
//! Keying on the *canonical* config — not the request's raw bytes —
//! means two clients spelling the same job with different JSON field
//! order, whitespace, or strategy aliases dedup onto one entry.
//!
//! Entries are [`StoredRecord`]s behind an [`Arc`]: the record plus the
//! JSON a `record` event carries, rendered once when the record was
//! computed. A hit is a refcount bump, and its reply is those bytes.
//!
//! [`JobSpec::canonical_json`]: cheri_sweep::JobSpec::canonical_json

use cheri_sweep::JobRecord;
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

/// A thread-safe result cache keyed by canonical job configuration.
/// Hits and misses are not counted here: a hit is exactly one
/// `serve_jobs_cached_total` in the telemetry registry.
#[derive(Default)]
pub struct ResultCache {
    map: Mutex<HashMap<String, Arc<StoredRecord>>>,
}

impl ResultCache {
    /// Looks a canonical configuration up. A hit shares the stored
    /// entry.
    #[must_use]
    pub fn lookup(&self, canonical_config: &str) -> Option<Arc<StoredRecord>> {
        self.map.lock().map_or(None, |m| m.get(canonical_config).cloned())
    }

    /// Stores a record. Two workers racing on the same configuration
    /// store byte-identical records — the simulator is deterministic —
    /// so last-write-wins is harmless.
    pub fn store(&self, canonical_config: String, record: &Arc<StoredRecord>) {
        if let Ok(mut m) = self.map.lock() {
            m.insert(canonical_config, Arc::clone(record));
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
        assert_eq!(cache.lookup("a"), None);
        let stored = record("a");
        cache.store("a".to_string(), &stored);
        let hit = cache.lookup("a").unwrap();
        assert!(Arc::ptr_eq(&hit, &stored), "a hit shares the stored entry, never a copy");
        assert_eq!(cache.lookup("b"), None, "only the exact configuration hits");
        assert_eq!(cache.len(), 1);
    }
}
