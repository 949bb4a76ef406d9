//! Service telemetry: the glue between the generic `cheri-telem`
//! primitives and this service's metric vocabulary.
//!
//! One [`ServiceTelem`] is shared by the server, the engine, and the
//! worker pool. It owns the metric *names* and the batching discipline
//! that makes the scrape invariants hold: every histogram observation
//! is recorded in the same registry critical section as the counter
//! that counts it, so `_count == counter` in every `metrics` scrape —
//! see the table in DESIGN.md §4i.
//!
//! Telemetry must never perturb served results. That holds by
//! construction: the engine runs jobs through the *same function*
//! whether observed or not (`cheri_sweep::run_job`, whose span hook the
//! batch path leaves `None`), and all metrics are derived from host
//! clocks and counters outside the simulator.

use crate::protocol::Origin;
use cheri_telem::{OpenSpan, SpanLog, SpanPhase, TelemRegistry};
use cheri_trace::chrome;
use std::time::Instant;

/// Counter: jobs completed through the engine (any origin).
pub const JOBS: &str = "serve_jobs_total";
/// Counters: jobs completed per origin (their sum equals [`JOBS`]).
pub const JOBS_CACHED: &str = "serve_jobs_cached_total";
/// See [`JOBS_CACHED`].
pub const JOBS_WARM: &str = "serve_jobs_warm_total";
/// See [`JOBS_CACHED`].
pub const JOBS_COLD: &str = "serve_jobs_cold_total";
/// Counters paired 1:1 with the phase histograms below.
pub const BOOTS: &str = "serve_boots_total";
/// See [`BOOTS`].
pub const RESTORES: &str = "serve_restores_total";
/// See [`BOOTS`].
pub const SIMULATES: &str = "serve_simulates_total";
/// See [`BOOTS`].
pub const QUEUE_WAITS: &str = "serve_queue_waits_total";
/// See [`BOOTS`].
pub const SERIALIZES: &str = "serve_serializes_total";
/// Histogram: wall latency of one engine job (`_count` == [`JOBS`]).
pub const JOB_LATENCY_US: &str = "serve_job_latency_us";
/// Histograms: per-phase wall times (`_count` == their counters).
pub const BOOT_US: &str = "serve_boot_us";
/// See [`BOOT_US`].
pub const RESTORE_US: &str = "serve_restore_us";
/// See [`BOOT_US`].
pub const SIMULATE_US: &str = "serve_simulate_us";
/// See [`BOOT_US`].
pub const QUEUE_WAIT_US: &str = "serve_queue_wait_us";
/// See [`BOOT_US`].
pub const SERIALIZE_US: &str = "serve_serialize_us";
/// Gauge: exact maximum of [`JOB_LATENCY_US`] (the bucketed exposition
/// cannot carry it; maintained in the same batch as the observation).
pub const JOB_LATENCY_MAX_US: &str = "serve_job_latency_max_us";
/// Gauges refreshed from live server state at scrape time.
pub const QUEUE_DEPTH: &str = "serve_queue_depth";
/// See [`QUEUE_DEPTH`].
pub const WORKERS: &str = "serve_workers";
/// See [`QUEUE_DEPTH`].
pub const WORKERS_ALIVE: &str = "serve_workers_alive";
/// See [`QUEUE_DEPTH`].
pub const WORKERS_BUSY: &str = "serve_workers_busy";
/// See [`QUEUE_DEPTH`].
pub const POOL_ENTRIES: &str = "serve_pool_entries";
/// See [`QUEUE_DEPTH`].
pub const CACHED_RESULTS: &str = "serve_cached_results";

/// The (histogram, counter) pairs whose `_count`/`_sum` must equal the
/// counter in every scrape — the machine-checkable consistency table.
pub const HIST_COUNTER_PAIRS: &[(&str, &str)] = &[
    (JOB_LATENCY_US, JOBS),
    (BOOT_US, BOOTS),
    (RESTORE_US, RESTORES),
    (SIMULATE_US, SIMULATES),
    (QUEUE_WAIT_US, QUEUE_WAITS),
    (SERIALIZE_US, SERIALIZES),
];

/// Identifies one engine job inside one request for span attribution:
/// `req` is the server-assigned monotonic request id (0 for work not
/// driven by a wire request — tests, the in-process transparency gate),
/// `job` the index of the job within the request (0 for single-job
/// verbs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobCtx {
    /// The request id (one Chrome-trace lane per id).
    pub req: u64,
    /// The job index within the request.
    pub job: u64,
}

impl JobCtx {
    /// The context for a single-job request.
    #[must_use]
    pub fn single(req: u64) -> JobCtx {
        JobCtx { req, job: 0 }
    }
}

/// The service's shared telemetry state: one registry, one span log.
#[derive(Default)]
pub struct ServiceTelem {
    registry: TelemRegistry,
    spans: SpanLog,
}

pub(crate) fn elapsed_us(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

impl ServiceTelem {
    /// The metric registry.
    #[must_use]
    pub fn registry(&self) -> &TelemRegistry {
        &self.registry
    }

    /// The span log.
    #[must_use]
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Opens the request-level span for a work request.
    pub fn request_begin(&self, req: u64) {
        self.spans.begin(SpanPhase::Request, req, 0);
    }

    /// Closes the request-level span, tagged with how the request
    /// resolved (an origin name, `"sweep"`, or `"error"`).
    pub fn request_end(&self, req: u64, tag: &'static str) {
        self.spans.end_tagged(SpanPhase::Request, req, 0, tag);
    }

    /// Opens the queue-wait span (at submission to the worker pool).
    pub fn queue_begin(&self, ctx: JobCtx) {
        self.spans.begin(SpanPhase::Queue, ctx.req, ctx.job);
    }

    /// Closes the queue-wait span (when a worker picks the task up) and
    /// records the wait with its counter in one batch.
    pub fn queue_end(&self, ctx: JobCtx, waited_us: u64) {
        self.spans.end(SpanPhase::Queue, ctx.req, ctx.job);
        self.registry.batch(|b| {
            b.add(QUEUE_WAITS, 1);
            b.record(QUEUE_WAIT_US, waited_us);
        });
    }

    /// Runs `f` (a serialisation step) inside `ctx`'s serialize span,
    /// recording its wall time with its counter in one batch. If `f`
    /// unwinds, the span still closes (tagged [`cheri_telem::ABORTED`])
    /// and nothing is recorded.
    pub fn serialize_span<T>(&self, ctx: JobCtx, f: impl FnOnce() -> T) -> T {
        let span = self.spans.open(SpanPhase::Serialize, ctx.req, ctx.job);
        let t0 = Instant::now();
        let out = f();
        let us = elapsed_us(t0);
        span.end(None);
        self.registry.batch(|b| {
            b.add(SERIALIZES, 1);
            b.record(SERIALIZE_US, us);
        });
        out
    }

    /// Records one completed engine job: the per-origin counter, the
    /// total, the latency observation, and the exact max — one batch,
    /// so `serve_jobs_total == cached + warm + cold ==
    /// serve_job_latency_us._count` in every scrape.
    pub fn job_finished(&self, origin: Origin, latency_us: u64) {
        let per_origin = match origin {
            Origin::Cached => JOBS_CACHED,
            Origin::Warm => JOBS_WARM,
            Origin::Cold => JOBS_COLD,
        };
        self.registry.batch(|b| {
            b.add(JOBS, 1);
            b.add(per_origin, 1);
            b.record(JOB_LATENCY_US, latency_us);
            b.gauge_max(JOB_LATENCY_MAX_US, latency_us);
        });
    }

    /// One `metrics` scrape: refreshes the point-in-time gauges (live
    /// server state sampled at scrape time) in one batch, then renders
    /// the registry as a Prometheus text exposition. Gauge refresh is
    /// idempotent, so idle scrapes are byte-identical.
    #[must_use]
    pub fn scrape(&self, gauges: &[(&'static str, u64)]) -> String {
        self.registry.batch(|b| {
            for (name, value) in gauges {
                b.set_gauge(name, *value);
            }
        });
        cheri_telem::render_exposition(&self.registry.snapshot())
    }

    /// The final-flush document: a Chrome trace-event JSON (loadable in
    /// `chrome://tracing` / Perfetto, which ignore the extra key) with
    /// the final metric snapshot embedded under `telemMetrics`.
    #[must_use]
    pub fn flush_json(&self) -> String {
        let metrics = self.registry.snapshot().to_json();
        chrome::document(&self.spans.to_chrome_events_json(), "ms", &[("telemMetrics", &metrics)])
    }
}

/// Adapts the sweep runners' span hook (`(phase_name, is_begin)`) to
/// the span log and the phase histograms: begin events start a host
/// timer and open the span; end events close it (tagged with the job's
/// origin) and record the duration with its counter in one batch.
///
/// Dropping the recorder closes every phase it opened and did not
/// close, tagged [`cheri_telem::ABORTED`] and with nothing recorded, so
/// a job that unwinds mid-phase leaves its request balanced and
/// `_count == counter` intact.
pub struct PhaseRecorder<'a> {
    telem: &'a ServiceTelem,
    ctx: JobCtx,
    origin_tag: &'static str,
    started: Vec<(&'static str, OpenSpan<'a>, Instant)>,
}

fn phase_metrics(name: &str) -> Option<(SpanPhase, &'static str, &'static str)> {
    Some(match name {
        "boot" => (SpanPhase::Boot, BOOTS, BOOT_US),
        "restore" => (SpanPhase::Restore, RESTORES, RESTORE_US),
        "simulate" => (SpanPhase::Simulate, SIMULATES, SIMULATE_US),
        _ => return None,
    })
}

impl<'a> PhaseRecorder<'a> {
    /// A recorder for one job; `origin_tag` labels every end event.
    #[must_use]
    pub fn new(
        telem: &'a ServiceTelem,
        ctx: JobCtx,
        origin_tag: &'static str,
    ) -> PhaseRecorder<'a> {
        PhaseRecorder { telem, ctx, origin_tag, started: Vec::new() }
    }

    /// The hook body: pass `&mut |name, begin| rec.note(name, begin)`
    /// to a `*_spanned` runner.
    pub fn note(&mut self, name: &'static str, begin: bool) {
        let Some((phase, counter, hist)) = phase_metrics(name) else { return };
        let ctx = self.ctx;
        if begin {
            let t0 = Instant::now();
            self.started.push((name, self.telem.spans.open(phase, ctx.req, ctx.job), t0));
        } else {
            let us = match self.started.iter().rposition(|(n, ..)| *n == name) {
                Some(i) => {
                    let (_, span, t0) = self.started.remove(i);
                    let us = elapsed_us(t0);
                    span.end(Some(self.origin_tag));
                    us
                }
                None => {
                    self.telem.spans.end_tagged(phase, ctx.req, ctx.job, self.origin_tag);
                    0
                }
            };
            self.telem.registry.batch(|b| {
                b.add(counter, 1);
                b.record(hist, us);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn phase_recorder_balances_and_pairs_counts() {
        let telem = ServiceTelem::default();
        let ctx = JobCtx { req: 5, job: 1 };
        let mut rec = PhaseRecorder::new(&telem, ctx, "warm");
        rec.note("restore", true);
        rec.note("restore", false);
        rec.note("simulate", true);
        rec.note("simulate", false);
        telem.job_finished(Origin::Warm, 1234);
        telem.spans().check_balance().unwrap();
        let snap = telem.registry().snapshot();
        for (hist, counter) in HIST_COUNTER_PAIRS {
            let count = snap.histogram(hist).map_or(0, cheri_telem::Histogram::count);
            assert_eq!(count, snap.counter(counter), "{hist} vs {counter}");
        }
        assert_eq!(snap.counter(JOBS), 1);
        assert_eq!(snap.counter(JOBS_WARM), 1);
        assert_eq!(snap.gauge(JOB_LATENCY_MAX_US), 1234);
    }

    /// A job that panics inside a phase, as `WorkerPool::submit`
    /// contains it: the phases it opened close as aborted, and neither
    /// the aborted phase nor the aborted serialisation is counted.
    #[test]
    fn a_job_that_unwinds_closes_the_spans_it_opened() {
        let telem = ServiceTelem::default();
        let ctx = JobCtx { req: 9, job: 0 };
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut rec = PhaseRecorder::new(&telem, ctx, "cold");
            rec.note("boot", true);
            rec.note("boot", false);
            rec.note("simulate", true);
            panic!("seeded job panic");
        }));
        assert!(unwound.is_err());
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            telem.serialize_span(ctx, || panic!("seeded serialize panic"))
        }));
        assert!(unwound.is_err());
        telem.spans().check_balance().unwrap();
        let ends: Vec<(SpanPhase, Option<&str>)> =
            telem.spans().events().iter().filter(|e| !e.begin).map(|e| (e.phase, e.tag)).collect();
        let aborted = Some(cheri_telem::ABORTED);
        let expected = [
            (SpanPhase::Boot, Some("cold")),
            (SpanPhase::Simulate, aborted),
            (SpanPhase::Serialize, aborted),
        ];
        assert_eq!(ends, expected);
        let snap = telem.registry().snapshot();
        assert_eq!(
            (snap.counter(BOOTS), snap.counter(SIMULATES), snap.counter(SERIALIZES)),
            (1, 0, 0)
        );
        for (hist, counter) in HIST_COUNTER_PAIRS {
            let count = snap.histogram(hist).map_or(0, cheri_telem::Histogram::count);
            assert_eq!(count, snap.counter(counter), "{hist} vs {counter}");
        }
    }
}
