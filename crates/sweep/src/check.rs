//! The regression gate: mechanical comparison of a sweep report
//! against a committed golden baseline.
//!
//! Every comparison is **exact**: checksums, architectural event counts
//! (instructions, loads/stores, syscalls, exceptions, heap bytes,
//! pages), microarchitectural outcomes (cycles, cache/TLB/tag/DRAM
//! traffic) and derived hit rates alike. The simulator is deterministic
//! and its platform (cache geometry, latencies, handler tariffs) is
//! constant in the code, so any drift is a code change — a latency
//! recalibration included — and showing its effect is the gate's job.
//!
//! Intentional changes are re-blessed with `xsweep --bless`, which
//! rewrites the baseline; the diff then goes through review like any
//! other code change.

use crate::report::SweepReport;

/// One gate violation, rendered into the drift table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Drift {
    /// The job key, or `<report>` for report-level mismatches.
    pub job: String,
    /// The drifting metric (or a structural label such as
    /// `<missing job>`).
    pub metric: String,
    /// Baseline-side value, rendered.
    pub baseline: String,
    /// Current-side value, rendered.
    pub current: String,
    /// Relative drift, rendered as basis points plus a percentage
    /// (`+62bp (+0.62%)`), or `-` for structural rows.
    pub drift: String,
}

impl Drift {
    fn structural(job: &str, metric: &str, baseline: &str, current: &str) -> Drift {
        Drift {
            job: job.to_string(),
            metric: metric.to_string(),
            baseline: baseline.to_string(),
            current: current.to_string(),
            drift: "-".to_string(),
        }
    }
}

/// Renders `baseline → current` relative drift as signed basis points
/// with the equivalent percentage, so gate failures read without a
/// calculator. A zero baseline has no relative scale and renders `-`.
fn rel_drift(baseline: u64, current: u64) -> String {
    if baseline == 0 {
        return "-".to_string();
    }
    let sign = if current >= baseline { "+" } else { "-" };
    let bp = u128::from(current.abs_diff(baseline)) * 10_000 / u128::from(baseline);
    format!("{sign}{bp}bp ({sign}{}.{:02}%)", bp / 100, bp % 100)
}

/// Diffs `current` against `baseline`, returning every difference
/// (empty = gate passes). Job sets, checksum lists, and metric name
/// sets must match structurally; matched metrics must be equal.
#[must_use]
pub fn check_reports(baseline: &SweepReport, current: &SweepReport) -> Vec<Drift> {
    let mut drifts = Vec::new();
    if baseline.profile != current.profile {
        drifts.push(Drift::structural("<report>", "profile", &baseline.profile, &current.profile));
    }
    for base_job in &baseline.jobs {
        let Some(cur_job) = current.job(&base_job.key) else {
            drifts.push(Drift::structural(&base_job.key, "<missing job>", "present", "absent"));
            continue;
        };
        if base_job.checksums != cur_job.checksums {
            drifts.push(Drift::structural(
                &base_job.key,
                "checksums",
                &format!("{:?}", base_job.checksums),
                &format!("{:?}", cur_job.checksums),
            ));
        }
        for (metric, &base) in &base_job.counters {
            let Some(&cur) = cur_job.counters.get(metric) else {
                drifts.push(Drift::structural(&base_job.key, metric, &base.to_string(), "absent"));
                continue;
            };
            if cur != base {
                drifts.push(Drift {
                    job: base_job.key.clone(),
                    metric: metric.clone(),
                    baseline: base.to_string(),
                    current: cur.to_string(),
                    drift: rel_drift(base, cur),
                });
            }
        }
        for metric in cur_job.counters.keys() {
            if !base_job.counters.contains_key(metric) {
                drifts.push(Drift::structural(&base_job.key, metric, "absent", "present"));
            }
        }
    }
    for cur_job in &current.jobs {
        if baseline.job(&cur_job.key).is_none() {
            drifts.push(Drift::structural(&cur_job.key, "<new job>", "absent", "present"));
        }
    }
    drifts
}

/// Renders drifts as an aligned, readable table (the gate's failure
/// output).
#[must_use]
pub fn render_drifts(drifts: &[Drift]) -> String {
    let col = |f: fn(&Drift) -> usize, min: usize| -> usize {
        drifts.iter().map(f).max().unwrap_or(min).max(min)
    };
    let jw = col(|d| d.job.len(), 3);
    let mw = col(|d| d.metric.len(), 6);
    let bw = col(|d| d.baseline.len(), 8);
    let cw = col(|d| d.current.len(), 7);
    let dw = col(|d| d.drift.len(), 5);
    let mut out = format!(
        "{:<jw$}  {:<mw$}  {:>bw$}  {:>cw$}  {:>dw$}\n",
        "job", "metric", "baseline", "current", "drift"
    );
    out.push_str(&format!(
        "{:-<jw$}  {:-<mw$}  {:->bw$}  {:->cw$}  {:->dw$}\n",
        "", "", "", "", ""
    ));
    for d in drifts {
        out.push_str(&format!(
            "{:<jw$}  {:<mw$}  {:>bw$}  {:>cw$}  {:>dw$}\n",
            d.job, d.metric, d.baseline, d.current, d.drift
        ));
    }
    out
}

/// Total number of gated comparisons a passing check performed (for
/// the gate's success message): one per checksum list plus one per
/// baseline counter.
#[must_use]
pub fn comparisons(baseline: &SweepReport) -> usize {
    baseline.jobs.iter().map(|j| 1 + j.counters.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::JobRecord;
    use std::collections::BTreeMap;

    fn record(key: &str, metric: &str, value: u64) -> JobRecord {
        let mut counters = BTreeMap::new();
        counters.insert(metric.to_string(), value);
        JobRecord {
            key: key.to_string(),
            workload: "treeadd".into(),
            strategy: "cheri".into(),
            cap_bits: 256,
            tag_cache_kb: 8,
            checksums: vec![42],
            counters,
        }
    }

    fn report(jobs: Vec<JobRecord>) -> SweepReport {
        SweepReport { profile: "smoke".into(), jobs }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(vec![record("a/cheri/tag8", "sim.instructions", 1000)]);
        assert!(check_reports(&r, &r).is_empty());
    }

    #[test]
    fn exact_metric_rejects_off_by_one() {
        let base = report(vec![record("a/cheri/tag8", "sim.instructions", 1000)]);
        let cur = report(vec![record("a/cheri/tag8", "sim.instructions", 1001)]);
        let drifts = check_reports(&base, &cur);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].metric, "sim.instructions");
    }

    #[test]
    fn cycle_drift_under_half_a_percent_fails() {
        let base = report(vec![record("a/cheri/tag8", "sim.cycles", 100_000)]);
        let cur = report(vec![record("a/cheri/tag8", "sim.cycles", 100_400)]);
        let drifts = check_reports(&base, &cur);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].drift, "+40bp (+0.40%)");
    }

    #[test]
    fn rate_drift_under_50bp_fails() {
        let base = report(vec![record("a/cheri/tag8", "tag.cache.hit_rate_bp", 9900)]);
        let cur = report(vec![record("a/cheri/tag8", "tag.cache.hit_rate_bp", 9851)]);
        assert_eq!(check_reports(&base, &cur).len(), 1);
    }

    #[test]
    fn structural_mismatches_are_drifts() {
        let base = report(vec![record("a/cheri/tag8", "sim.instructions", 1)]);
        let cur = report(vec![record("b/cheri/tag8", "sim.instructions", 1)]);
        let drifts = check_reports(&base, &cur);
        let metrics: Vec<&str> = drifts.iter().map(|d| d.metric.as_str()).collect();
        assert!(metrics.contains(&"<missing job>"));
        assert!(metrics.contains(&"<new job>"));
    }

    #[test]
    fn checksum_mismatch_is_a_drift() {
        let base = report(vec![record("a/cheri/tag8", "sim.instructions", 1)]);
        let mut cur = base.clone();
        cur.jobs[0].checksums = vec![43];
        let drifts = check_reports(&base, &cur);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].metric, "checksums");
    }

    #[test]
    fn drift_table_renders_all_rows() {
        let base = report(vec![record("a/cheri/tag8", "sim.instructions", 1000)]);
        let cur = report(vec![record("a/cheri/tag8", "sim.instructions", 2000)]);
        let table = render_drifts(&check_reports(&base, &cur));
        assert!(table.contains("sim.instructions"));
        assert!(table.contains("1000"));
        assert!(table.contains("2000"));
        assert!(table.contains("drift"));
        assert!(table.contains("+10000bp (+100.00%)"));
    }

    #[test]
    fn relative_drift_renders_bp_and_percent() {
        assert_eq!(rel_drift(100_000, 100_620), "+62bp (+0.62%)");
        assert_eq!(rel_drift(100_000, 99_000), "-100bp (-1.00%)");
        assert_eq!(rel_drift(1000, 1000), "+0bp (+0.00%)");
        assert_eq!(rel_drift(0, 5), "-");
    }

    #[test]
    fn structural_rows_have_no_relative_drift() {
        let base = report(vec![record("a/cheri/tag8", "sim.instructions", 1)]);
        let cur = report(vec![record("b/cheri/tag8", "sim.instructions", 1)]);
        for d in check_reports(&base, &cur) {
            assert_eq!(d.drift, "-");
        }
    }
}
