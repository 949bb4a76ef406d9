//! The metric vocabulary, the statistics behind it, and the result
//! line every run prints.

use cheri_bench::latency::nearest_rank;
use cheri_sweep::JobRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric: its name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// The name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user sees, measured with tracing off, on every workload.
pub const END_TO_END: [Metric; 6] = [
    m("setup_s", "s"),
    m("ops_per_s", "1/s"),
    m("guest_mips", "MIPS"),
    m("p50_us", "us"),
    m("p90_us", "us"),
    m("peak_rss_mb", "MB"),
];

/// What each layer contributes, from a traced run. A layer a workload
/// does not reach reads 0 there: the `serve.*` layers on batch
/// workloads, the in-process `os.*`/`sim.*` timings and `snap.*` probes
/// on served ones, and simulation on `serve-cached`.
pub const PER_LAYER: [Metric; 28] = [
    m("os.start_ms", "ms"),
    m("sim.alloc_ms", "ms"),
    m("sim.compute_ms", "ms"),
    m("sim.ns_per_instr", "ns"),
    m("sim.guest_instr", "count"),
    m("sim.l1d_per_ki", "1/ki"),
    m("sim.l2_per_ki", "1/ki"),
    m("sim.dram_per_ki", "1/ki"),
    m("sim.tlb_refills_per_mi", "1/Mi"),
    m("sim.cap_instr_per_ki", "1/ki"),
    m("sim.l1d_hit_bp", "bp"),
    m("mem.tag_lookups_per_ki", "1/ki"),
    m("mem.tag_writes_per_ki", "1/ki"),
    m("mem.tag_hit_bp", "bp"),
    m("snap.capture_ms", "ms"),
    m("snap.hash_ms", "ms"),
    m("snap.restore_ms", "ms"),
    m("snap.bytes", "bytes"),
    m("serve.queue_wait_us", "us"),
    m("serve.boot_ms", "ms"),
    m("serve.restore_ms", "ms"),
    m("serve.simulate_ms", "ms"),
    m("serve.serialize_us", "us"),
    m("serve.engine_us", "us"),
    m("serve.wire_us", "us"),
    m("serve.cached", "count"),
    m("serve.warm", "count"),
    m("bench.trace_overhead_pct", "%"),
];

/// The metrics a run reports: the end-to-end set untraced, the
/// per-layer set traced.
#[must_use]
pub fn table(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result of one run of one workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// Whether every check passed (no failed operation, and the traced
    /// split accounted for the run).
    pub correct: bool,
    /// The values measured.
    pub values: Values,
}

impl Outcome {
    /// Folds another outcome's operations and checks into this one.
    pub fn absorb_ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.correct &= failed == 0;
    }

    /// The result line: exactly the keys `correct`, `attempted`,
    /// `failed` and `metrics`, each metric as `{"value", "unit"}`.
    ///
    /// # Errors
    ///
    /// A metric of `table` that was not measured, a value that was
    /// measured but is not in `table`, or a non-finite value.
    pub fn to_json(&self, table: &[Metric]) -> Result<String, String> {
        if let Some(extra) = self.values.keys().find(|k| !table.iter().any(|m| m.name == **k)) {
            return Err(format!("metric {extra} is not reported by this run"));
        }
        let mut metrics = String::new();
        for (i, metric) in table.iter().enumerate() {
            let value = *self
                .values
                .get(metric.name)
                .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", metric.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        ))
    }

    /// The line protocol a batch worker process reports on:
    /// `ops ATTEMPTED FAILED CORRECT` then one `metric NAME VALUE` per
    /// value. `f64`'s `Display` round-trips exactly.
    #[must_use]
    pub fn to_lines(&self) -> String {
        let mut out = format!("ops {} {} {}\n", self.attempted, self.failed, self.correct);
        for (name, value) in &self.values {
            let _ = writeln!(out, "metric {name} {value}");
        }
        out
    }

    /// Parses [`Outcome::to_lines`] output; names are resolved against
    /// both metric tables.
    ///
    /// # Errors
    ///
    /// A malformed line or an unknown metric name.
    pub fn from_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let mut saw_ops = false;
        for line in lines {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["ops", attempted, failed, correct] => {
                    out.attempted = attempted.parse().map_err(|_| format!("bad line `{line}`"))?;
                    out.failed = failed.parse().map_err(|_| format!("bad line `{line}`"))?;
                    out.correct = correct.parse().map_err(|_| format!("bad line `{line}`"))?;
                    saw_ops = true;
                }
                ["metric", name, value] => {
                    let metric = END_TO_END
                        .iter()
                        .chain(PER_LAYER.iter())
                        .find(|m| m.name == *name)
                        .ok_or_else(|| format!("unknown metric in `{line}`"))?;
                    let value = value.parse().map_err(|_| format!("bad line `{line}`"))?;
                    out.values.insert(metric.name, value);
                }
                _ => return Err(format!("bad line `{line}`")),
            }
        }
        if saw_ops {
            Ok(out)
        } else {
            Err("no `ops` line".into())
        }
    }
}

/// The median; the mean of the middle two for an even count, 0 for
/// none.
#[must_use]
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of nanosecond latencies, in microseconds.
#[must_use]
fn percentile_us(latencies_ns: &mut [u64], pct: u64) -> f64 {
    latencies_ns.sort_unstable();
    nearest_rank(latencies_ns, pct) as f64 / 1000.0
}

/// The rate and latency metrics of a run timed by each job's shortest
/// time, `best_ns`: one pass over the jobs, `pass_instr` guest
/// instructions, at those times. Sorts `best_ns`.
pub(crate) fn best_pass(best_ns: &mut [u64], pass_instr: u64, values: &mut Values) {
    let pass_s = best_ns.iter().map(|&ns| ns as f64).sum::<f64>() / 1e9;
    values.insert("ops_per_s", best_ns.len() as f64 / pass_s);
    values.insert("guest_mips", pass_instr as f64 / pass_s / 1e6);
    values.insert("p50_us", percentile_us(best_ns, 50));
    values.insert("p90_us", percentile_us(best_ns, 90));
}

/// `num / den`, 0 when nothing was counted.
#[must_use]
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB.
///
/// # Errors
///
/// An unreadable `/proc` entry or one without `VmHWM`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kb / 1024.0)
}

/// The exact architectural counts of a job set, each job once, as
/// rates per guest instruction. They name the model path a workload
/// drives, and repeat exactly from run to run.
pub(crate) fn record_counts(records: &[JobRecord], values: &mut Values) {
    let sum = |name: &str| -> f64 {
        records.iter().map(|r| r.counters.get(name).copied().unwrap_or(0)).sum::<u64>() as f64
    };
    let instr = sum("sim.instructions");
    let per = |events: f64, scale: f64| ratio(events * scale, instr);
    let hit_bp = |hits: f64, misses: f64| {
        if hits + misses == 0.0 {
            10_000.0
        } else {
            10_000.0 * hits / (hits + misses)
        }
    };
    let (l1d_hits, l1d_misses) = (sum("cache.l1d.hits"), sum("cache.l1d.misses"));
    let (tag_hits, tag_misses) = (sum("tag.cache.hits"), sum("tag.cache.misses"));
    values.insert("sim.guest_instr", instr);
    values.insert("sim.l1d_per_ki", per(l1d_hits + l1d_misses, 1e3));
    values.insert("sim.l2_per_ki", per(sum("cache.l2.hits") + sum("cache.l2.misses"), 1e3));
    values.insert("sim.dram_per_ki", per(sum("dram.accesses"), 1e3));
    values.insert("sim.tlb_refills_per_mi", per(sum("tlb.refills"), 1e6));
    values.insert("sim.cap_instr_per_ki", per(sum("sim.cap_instructions"), 1e3));
    values.insert("sim.l1d_hit_bp", hit_bp(l1d_hits, l1d_misses));
    values.insert("mem.tag_lookups_per_ki", per(tag_hits + tag_misses, 1e3));
    values.insert("mem.tag_writes_per_ki", per(sum("tag.table.writes"), 1e3));
    values.insert("mem.tag_hit_bp", hit_bp(tag_hits, tag_misses));
}

/// Sets every metric of `names` to 0: the layers a workload does not
/// reach.
pub(crate) fn unreached(names: &[&'static str], values: &mut Values) {
    for name in names {
        values.insert(name, 0.0);
    }
}
