//! The sweep report: every job's architectural counters as a named,
//! versioned, machine-checkable datum.
//!
//! The serialised form is deliberately integer-only (derived rates are
//! stored in basis points) and emitted from sorted maps in spec order,
//! so a report is **bit-identical** regardless of thread count,
//! scheduling, or host — the determinism test asserts exactly this.
//! Wall-clock times never appear in a report; baselines hold
//! architectural counters only (see DESIGN.md).

use crate::matrix::JobResult;
use cheri_trace::json::{self, Json, JsonWriter};
use cheri_trace::names;
use std::collections::BTreeMap;

/// Bumped when the report layout changes incompatibly (a gate run
/// refuses to compare across schema versions).
pub const SCHEMA_VERSION: u64 = 1;

/// The architectural counters every job record carries, drawn from the
/// unified [`cheri_trace`] metrics snapshot. Cycle phase totals, heap
/// use, and derived hit rates are added on top under `cycles.*`,
/// `heap.bytes_used`, and `*_rate_bp`.
pub const ARCH_COUNTERS: [&str; 23] = [
    names::INSTRUCTIONS,
    names::CAP_INSTRUCTIONS,
    "sim.exceptions",
    names::CAP_EXCEPTIONS,
    names::LOADS,
    names::STORES,
    "mem.cap_loads",
    "mem.cap_stores",
    names::L1I_HITS,
    names::L1I_MISSES,
    names::L1D_HITS,
    names::L1D_MISSES,
    names::L2_HITS,
    names::L2_MISSES,
    names::TLB_REFILLS,
    names::TAG_TABLE_READS,
    names::TAG_TABLE_WRITES,
    names::TAG_CACHE_HITS,
    names::TAG_CACHE_MISSES,
    "dram.accesses",
    "dram.bytes",
    names::SYSCALLS,
    "os.pages_touched",
];

/// Integer hit rate in basis points (hits / (hits + misses) × 10⁴);
/// 10000 for an idle unit so an unused tag cache reads as "no misses".
#[must_use]
pub fn hit_rate_bp(hits: u64, misses: u64) -> u64 {
    hits.saturating_mul(10000).checked_div(hits + misses).unwrap_or(10000)
}

/// One job's report entry: the matrix coordinates plus its counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// The unique job key (`workload/strategy/tagNN[/pVV]`).
    pub key: String,
    /// Workload name.
    pub workload: String,
    /// Strategy name.
    pub strategy: String,
    /// Capability width in bits (0 for non-capability code).
    pub cap_bits: u64,
    /// Tag-cache capacity in KB.
    pub tag_cache_kb: u64,
    /// The workload's printed checksums (exact-match gated).
    pub checksums: Vec<u64>,
    /// Architectural counters, each gated exactly.
    pub counters: BTreeMap<String, u64>,
}

impl JobRecord {
    /// Extracts the record from a completed job.
    #[must_use]
    pub fn from_result(r: &JobResult) -> JobRecord {
        let m = &r.run.outcome.metrics;
        let mut counters = BTreeMap::new();
        for name in ARCH_COUNTERS {
            counters.insert(name.to_string(), m.counter(name));
        }
        counters.insert("cycles.alloc".into(), r.run.alloc.cycles);
        counters.insert("cycles.compute".into(), r.run.compute.cycles);
        counters.insert("cycles.total".into(), r.run.total_cycles());
        counters.insert("heap.bytes_used".into(), r.run.heap_used);
        counters.insert(
            "cache.l1d.hit_rate_bp".into(),
            hit_rate_bp(m.counter(names::L1D_HITS), m.counter(names::L1D_MISSES)),
        );
        counters.insert(
            "cache.l2.hit_rate_bp".into(),
            hit_rate_bp(m.counter(names::L2_HITS), m.counter(names::L2_MISSES)),
        );
        counters.insert(
            "tag.cache.hit_rate_bp".into(),
            hit_rate_bp(m.counter(names::TAG_CACHE_HITS), m.counter(names::TAG_CACHE_MISSES)),
        );
        JobRecord {
            key: r.spec.key(),
            workload: r.spec.workload.name().to_string(),
            strategy: r.spec.strategy.name().to_string(),
            cap_bits: r.spec.strategy.cap_bits(),
            tag_cache_kb: r.spec.tag_cache_kb as u64,
            checksums: r.run.checksums().to_vec(),
            counters,
        }
    }

    /// Serialises the record exactly as it appears on its line of a
    /// [`SweepReport`] — also the payload of `cheri-serve`'s
    /// single-job `record` events, so a served record is byte-identical
    /// to the corresponding report line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.str_field("key", &self.key);
        w.str_field("workload", &self.workload);
        w.str_field("strategy", &self.strategy);
        w.u64_field("cap_bits", self.cap_bits);
        w.u64_field("tag_cache_kb", self.tag_cache_kb);
        let sums: Vec<String> = self.checksums.iter().map(u64::to_string).collect();
        w.raw_field("checksums", &format!("[{}]", sums.join(",")));
        let mut c = JsonWriter::object();
        for (k, v) in &self.counters {
            c.u64_field(k, *v);
        }
        w.raw_field("counters", &c.close());
        w.close()
    }

    /// Parses one serialised record (the inverse of
    /// [`JobRecord::to_json`]).
    ///
    /// # Errors
    ///
    /// Describes the first malformation found.
    pub fn from_json(v: &Json) -> Result<JobRecord, String> {
        let obj = v.as_obj().ok_or("job record must be an object")?;
        let get_str = |k: &str| -> Result<String, String> {
            obj.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("job record missing string field '{k}'"))
        };
        let get_u64 = |k: &str| -> Result<u64, String> {
            obj.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("job record missing integer field '{k}'"))
        };
        let mut checksums = Vec::new();
        for v in obj.get("checksums").and_then(Json::as_arr).ok_or("missing checksums")? {
            checksums.push(v.as_u64().ok_or("checksum must be a u64")?);
        }
        let mut counters = BTreeMap::new();
        for (k, v) in obj.get("counters").and_then(Json::as_obj).ok_or("missing counters")? {
            counters.insert(
                k.clone(),
                v.as_u64().ok_or_else(|| format!("counter '{k}' must be a u64"))?,
            );
        }
        Ok(JobRecord {
            key: get_str("key")?,
            workload: get_str("workload")?,
            strategy: get_str("strategy")?,
            cap_bits: get_u64("cap_bits")?,
            tag_cache_kb: get_u64("tag_cache_kb")?,
            checksums,
            counters,
        })
    }
}

/// A full sweep: the profile it ran plus one record per job, in
/// canonical matrix order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepReport {
    /// Profile name (`smoke`, `full`, `paper`).
    pub profile: String,
    /// Job records in spec order.
    pub jobs: Vec<JobRecord>,
}

impl SweepReport {
    /// Builds the report from completed jobs.
    #[must_use]
    pub fn from_results(profile: &str, results: &[JobResult]) -> SweepReport {
        SweepReport {
            profile: profile.to_string(),
            jobs: results.iter().map(JobRecord::from_result).collect(),
        }
    }

    /// Looks a job up by key.
    #[must_use]
    pub fn job(&self, key: &str) -> Option<&JobRecord> {
        self.jobs.iter().find(|j| j.key == key)
    }

    /// Serialises the report: one job per line inside a stable wrapper,
    /// so baselines diff line-per-job under git.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut head = JsonWriter::object();
        head.u64_field("schema", SCHEMA_VERSION);
        head.str_field("profile", &self.profile);
        let head = head.close();
        // Reopen the closed object to splice in the jobs array with
        // one-record-per-line formatting.
        out.push_str(&head[..head.len() - 1]);
        out.push_str(",\"jobs\":[\n");
        for (i, job) in self.jobs.iter().enumerate() {
            out.push_str(&job.to_json());
            if i + 1 != self.jobs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// Parses a serialised report, rejecting other schema versions.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformation found.
    pub fn from_json(text: &str) -> Result<SweepReport, String> {
        let v = json::parse(text)?;
        let obj = v.as_obj().ok_or("report must be an object")?;
        let schema = obj.get("schema").and_then(Json::as_u64).ok_or("missing schema version")?;
        if schema != SCHEMA_VERSION {
            return Err(format!("schema version {schema} (this build reads {SCHEMA_VERSION})"));
        }
        let profile =
            obj.get("profile").and_then(Json::as_str).ok_or("missing profile")?.to_string();
        let mut jobs = Vec::new();
        for j in obj.get("jobs").and_then(Json::as_arr).ok_or("missing jobs")? {
            jobs.push(JobRecord::from_json(j)?);
        }
        Ok(SweepReport { profile, jobs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_record(key: &str, instructions: u64) -> JobRecord {
        let mut counters = BTreeMap::new();
        counters.insert(names::INSTRUCTIONS.to_string(), instructions);
        counters.insert("cycles.total".to_string(), instructions * 2);
        counters.insert("cache.l1d.hit_rate_bp".to_string(), 9876);
        JobRecord {
            key: key.to_string(),
            workload: key.split('/').next().unwrap_or("w").to_string(),
            strategy: "cheri".to_string(),
            cap_bits: 256,
            tag_cache_kb: 8,
            checksums: vec![1, 2, 3],
            counters,
        }
    }

    #[test]
    fn report_json_roundtrip() {
        let report = SweepReport {
            profile: "smoke".to_string(),
            jobs: vec![
                sample_record("treeadd/cheri/tag8", 1000),
                sample_record("mst/cheri/tag8", 2000),
            ],
        };
        let text = report.to_json();
        let back = SweepReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        // One job per line between the wrapper lines.
        assert_eq!(text.lines().count(), 1 + report.jobs.len() + 1);
    }

    #[test]
    fn rejects_future_schema() {
        let text = "{\"schema\":999,\"profile\":\"smoke\",\"jobs\":[]}";
        let err = SweepReport::from_json(text).unwrap_err();
        assert!(err.contains("schema version 999"), "{err}");
    }

    #[test]
    fn hit_rate_basis_points() {
        assert_eq!(hit_rate_bp(0, 0), 10000);
        assert_eq!(hit_rate_bp(999, 1), 9990);
        assert_eq!(hit_rate_bp(1, 3), 2500);
    }
}
