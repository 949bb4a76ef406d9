//! The result cache: identical work is executed once.
//!
//! The key is the job's [`JobSpec`] — workload, strategy, tag-cache
//! size, variant and every problem-size parameter — hashed to find a
//! bucket and compared whole by its derived `Eq`, so two configurations
//! can never share an entry, and a field added to the spec joins the
//! key by construction. The simulator is deterministic, so a
//! configuration fixes both the phase-2 snapshot a warm run starts from
//! and the result; a hit can be served as stored bytes without
//! re-execution. The snapshot pool ([`crate::pool`]) is keyed by the
//! same spec.
//!
//! Keying on the *resolved* spec — not the request's raw bytes — means
//! two clients spelling the same job with different JSON field order,
//! whitespace, or strategy aliases dedup onto one entry.
//!
//! Entries are [`StoredRecord`]s behind an [`Arc`]: the record plus its
//! JSON already quoted as the string literal a `record` event carries,
//! rendered once when the record was computed. A hit is a refcount
//! bump, and its reply is those bytes appended to a few header fields
//! ([`StoredRecord::reply`]).

use crate::protocol::{encode_record, Origin};
use cheri_sweep::{JobRecord, JobSpec};
use cheri_trace::json;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A finished job's record and its serialised form, kept together so a
/// cache hit never re-serialises or re-escapes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredRecord {
    /// The record (sweeps assemble reports from it).
    pub record: JobRecord,
    /// [`JobRecord::to_json`] as a JSON string literal, quotes included:
    /// the `record` field of every reply for this job.
    pub quoted: String,
}

impl StoredRecord {
    /// Renders and quotes `record` once.
    #[must_use]
    pub fn new(record: JobRecord) -> StoredRecord {
        let mut quoted = String::new();
        json::quote_into(&mut quoted, &record.to_json());
        StoredRecord { record, quoted }
    }

    /// The `record` event line (no trailing newline) answering request
    /// `req` with this result, byte-identical to
    /// [`crate::encode_event`] of the same [`crate::Event::Record`].
    #[must_use]
    pub fn reply(&self, origin: Origin, req: u64) -> String {
        encode_record(&self.record.key, origin, &self.quoted, req)
    }
}

/// A thread-safe result cache keyed by job configuration.
/// Hits and misses are not counted here: a hit is exactly one
/// `serve_jobs_cached_total` in the telemetry registry.
#[derive(Default)]
pub struct ResultCache {
    map: Mutex<HashMap<JobSpec, Arc<StoredRecord>>>,
}

impl ResultCache {
    /// Looks a configuration up. A hit shares the stored entry.
    #[must_use]
    pub fn lookup(&self, spec: &JobSpec) -> Option<Arc<StoredRecord>> {
        self.map.lock().map_or(None, |m| m.get(spec).cloned())
    }

    /// Stores a record. Two workers racing on the same configuration
    /// store byte-identical records — the simulator is deterministic —
    /// so last-write-wins is harmless.
    pub fn store(&self, spec: JobSpec, record: &Arc<StoredRecord>) {
        if let Ok(mut m) = self.map.lock() {
            m.insert(spec, Arc::clone(record));
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
    use crate::protocol::{decode_event, encode_event, Event};
    use cheri_olden::OldenParams;
    use cheri_sweep::SweepReport;
    use std::collections::BTreeMap;

    fn record(key: &str) -> Arc<StoredRecord> {
        Arc::new(StoredRecord::new(JobRecord {
            key: key.to_string(),
            workload: "treeadd".into(),
            strategy: "cheri".into(),
            cap_bits: 256,
            tag_cache_kb: 8,
            checksums: vec![42],
            counters: BTreeMap::new(),
        }))
    }

    fn spec(strategy: &str) -> JobSpec {
        JobSpec::from_parts("treeadd", strategy, 8, OldenParams::scaled()).unwrap()
    }

    #[test]
    fn a_hit_shares_the_stored_entry() {
        let cache = ResultCache::default();
        assert_eq!(cache.lookup(&spec("cheri")), None);
        let stored = record("treeadd/cheri/tag8");
        cache.store(spec("cheri"), &stored);
        let hit = cache.lookup(&spec("cap")).unwrap();
        assert!(Arc::ptr_eq(&hit, &stored), "a hit shares the stored entry, never a copy");
        assert_eq!(cache.lookup(&spec("cheri128")), None, "only the same configuration hits");
        assert_eq!(cache.len(), 1);
    }

    /// Every reply assembled around a stored record is the line
    /// `encode_event` writes for the same event, and reads back as the
    /// record's own bytes: for each committed smoke record, each origin
    /// and request ids at both ends of their range.
    #[test]
    fn replies_are_the_encoded_record_event() {
        let text = include_str!("../../../baselines/sweep-smoke.json");
        let report = SweepReport::from_json(text).unwrap();
        assert_eq!(report.jobs.len(), 30);
        for record in report.jobs {
            let json = record.to_json();
            assert!(text.contains(&json), "{}: the record re-renders as committed", record.key);
            let stored = StoredRecord::new(record);
            for origin in [Origin::Cached, Origin::Warm, Origin::Cold] {
                for req in [0, 1, u64::MAX] {
                    let line = stored.reply(origin, req);
                    let key = stored.record.key.clone();
                    let ev = Event::Record { key, origin, record: json.clone(), req };
                    assert_eq!(line, encode_event(&ev), "{ev:?}");
                    assert_eq!(decode_event(&line), Ok(ev));
                }
            }
        }
    }
}
