//! Per-request span events: balanced begin/end pairs per phase, with a
//! Chrome-trace / Perfetto export.
//!
//! This reuses the guest-side span shape (a begin and an end with a
//! kind, an id, a timestamp; `cheri_trace::SpanKind` on the guest) for
//! the host service: the kind is a [`SpanPhase`], the id is a (request, job)
//! pair, and the timestamp is microseconds since the [`SpanLog`] was
//! created, taken from a monotonic clock. "Balanced" is a hard
//! invariant, not a hope: [`SpanLog::check_balance`] verifies that for
//! every (request, job, phase) key the stream never ends a span that
//! is not open and closes every span it opens — the roundtrip tests
//! run it against a live server's log.
//!
//! The export ([`SpanLog::to_chrome_events_json`]) renders through the
//! workspace's one Chrome trace-event writer (`cheri_trace::chrome`) as
//! `ph: "B"/"E"` rows, with one timeline lane (`tid`) per request id so
//! concurrent requests render side by side. Events are stored compact
//! (48 bytes each) and rendered only at export.

use cheri_trace::chrome::{self, Ph, Row};
use cheri_trace::json::JsonWriter;
use std::sync::Mutex;
use std::time::Instant;

/// The phase of request handling a span brackets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanPhase {
    /// The whole request, connection-accept to response-written.
    Request,
    /// Waiting in the worker pool's queue for a free worker.
    Queue,
    /// Cold boot: module start + warmup phases (cache/pool miss).
    Boot,
    /// Restoring a prewarmed snapshot (pool hit).
    Restore,
    /// The measured simulation itself.
    Simulate,
    /// Rendering the report/record JSON.
    Serialize,
}

impl SpanPhase {
    /// Stable lowercase name, used in the Chrome export and tests.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SpanPhase::Request => "request",
            SpanPhase::Queue => "queue",
            SpanPhase::Boot => "boot",
            SpanPhase::Restore => "restore",
            SpanPhase::Simulate => "simulate",
            SpanPhase::Serialize => "serialize",
        }
    }
}

/// One begin or end event. `req` is the server-assigned request id,
/// `job` the index of the sweep job within the request (0 for
/// single-job requests), `t_us` microseconds since the log's epoch,
/// and `tag` an optional annotation on end events (the cache origin:
/// `cached`/`warm`/`cold`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    pub begin: bool,
    pub phase: SpanPhase,
    pub req: u64,
    pub job: u64,
    pub t_us: u64,
    pub tag: Option<&'static str>,
}

/// An append-only, thread-shared log of span events; its epoch is the
/// moment it was created.
pub struct SpanLog {
    events: Mutex<Vec<SpanEvent>>,
    epoch: Instant,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog { events: Mutex::new(Vec::new()), epoch: Instant::now() }
    }
}

impl SpanLog {
    fn push(&self, begin: bool, phase: SpanPhase, req: u64, job: u64, tag: Option<&'static str>) {
        let t_us = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        if let Ok(mut events) = self.events.lock() {
            events.push(SpanEvent { begin, phase, req, job, t_us, tag });
        }
    }

    /// Opens a span.
    pub fn begin(&self, phase: SpanPhase, req: u64, job: u64) {
        self.push(true, phase, req, job, None);
    }

    /// Closes a span.
    pub fn end(&self, phase: SpanPhase, req: u64, job: u64) {
        self.push(false, phase, req, job, None);
    }

    /// Closes a span with an annotation (e.g. the cache origin).
    pub fn end_tagged(&self, phase: SpanPhase, req: u64, job: u64, tag: &'static str) {
        self.push(false, phase, req, job, Some(tag));
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().map_or(0, |e| e.len())
    }

    /// Whether no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the recorded events, in record order.
    #[must_use]
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events.lock().map_or_else(|_| Vec::new(), |e| e.clone())
    }

    /// Verifies the balance invariant: replayed in record order, no
    /// (request, job, phase) key ever closes a span it has not opened,
    /// and every opened span is closed by the end of the log.
    ///
    /// # Errors
    ///
    /// Describes the first unbalanced key found.
    pub fn check_balance(&self) -> Result<(), String> {
        check_balance(&self.events())
    }

    /// The `traceEvents` array (a raw JSON array) for a Chrome
    /// trace-event document ([`chrome::document`]): one `B`/`E` row per
    /// event, `tid` = request id (one lane per request), `ts` in
    /// microseconds, the job index and any tag carried in `args`.
    #[must_use]
    pub fn to_chrome_events_json(&self) -> String {
        chrome::events(self.events().iter().map(|e| {
            let mut args = JsonWriter::object();
            args.u64_field("job", e.job);
            if let Some(tag) = e.tag {
                args.str_field("origin", tag);
            }
            Row {
                name: e.phase.as_str(),
                cat: "serve",
                ph: if e.begin { Ph::Begin } else { Ph::End },
                ts: e.t_us,
                dur: 0,
                tid: e.req,
                args: Some(args.close()),
            }
        }))
    }
}

/// [`SpanLog::check_balance`] over any event slice (used directly by
/// tests that reconstruct logs from dumped timelines).
///
/// # Errors
///
/// Describes the first unbalanced key found.
pub fn check_balance(events: &[SpanEvent]) -> Result<(), String> {
    let mut depth: std::collections::BTreeMap<(u64, u64, SpanPhase), u64> =
        std::collections::BTreeMap::new();
    for e in events {
        let d = depth.entry((e.req, e.job, e.phase)).or_insert(0);
        if e.begin {
            *d += 1;
        } else if *d == 0 {
            return Err(format!(
                "end without begin: req={} job={} phase={}",
                e.req,
                e.job,
                e.phase.as_str()
            ));
        } else {
            *d -= 1;
        }
    }
    for ((req, job, phase), d) in depth {
        if d != 0 {
            return Err(format!(
                "{d} unclosed span(s): req={req} job={job} phase={}",
                phase.as_str()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_trace::json;

    #[test]
    fn balanced_log_passes_and_unbalanced_fails() {
        let log = SpanLog::default();
        log.begin(SpanPhase::Request, 1, 0);
        log.begin(SpanPhase::Queue, 1, 0);
        log.end(SpanPhase::Queue, 1, 0);
        log.begin(SpanPhase::Simulate, 1, 0);
        log.end_tagged(SpanPhase::Simulate, 1, 0, "warm");
        log.end_tagged(SpanPhase::Request, 1, 0, "warm");
        log.check_balance().unwrap();

        log.begin(SpanPhase::Boot, 2, 0);
        let err = log.check_balance().unwrap_err();
        assert!(err.contains("unclosed") && err.contains("boot"), "{err}");

        let orphan = vec![SpanEvent {
            begin: false,
            phase: SpanPhase::Queue,
            req: 3,
            job: 0,
            t_us: 0,
            tag: None,
        }];
        let err = check_balance(&orphan).unwrap_err();
        assert!(err.contains("end without begin"), "{err}");
    }

    #[test]
    fn same_phase_on_different_jobs_is_tracked_separately() {
        // A parallel sweep: two jobs of one request interleave their
        // simulate spans. Balance is per (req, job, phase), so this is
        // legal; the same interleaving on a single job key is not.
        let log = SpanLog::default();
        log.begin(SpanPhase::Simulate, 1, 0);
        log.begin(SpanPhase::Simulate, 1, 1);
        log.end(SpanPhase::Simulate, 1, 0);
        log.end(SpanPhase::Simulate, 1, 1);
        log.check_balance().unwrap();
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_lane_per_request() {
        let log = SpanLog::default();
        log.begin(SpanPhase::Request, 7, 0);
        log.begin(SpanPhase::Simulate, 7, 0);
        log.end_tagged(SpanPhase::Simulate, 7, 0, "cold");
        log.end(SpanPhase::Request, 7, 0);
        log.begin(SpanPhase::Request, 8, 0);
        log.end_tagged(SpanPhase::Request, 8, 0, "cached");

        let parsed = json::parse(&log.to_chrome_events_json()).unwrap();
        let events = parsed.as_arr().unwrap();
        assert_eq!(events.len(), 6);
        for e in events {
            let obj = e.as_obj().unwrap();
            let ph = obj["ph"].as_str().unwrap();
            assert!(ph == "B" || ph == "E");
            assert!(obj["tid"].as_u64() == Some(7) || obj["tid"].as_u64() == Some(8));
            assert!(obj.contains_key("ts") && obj.contains_key("args"));
        }
        let origin =
            events[2].as_obj().unwrap()["args"].as_obj().unwrap()["origin"].as_str().unwrap();
        assert_eq!(origin, "cold");
        // Timestamps never run backwards within the log.
        let ts: Vec<u64> =
            events.iter().map(|e| e.as_obj().unwrap()["ts"].as_u64().unwrap()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn span_events_stay_compact() {
        // A cached request logs two events and the log keeps them until
        // the flush, so the event size sets the service's resident
        // growth per request.
        assert!(std::mem::size_of::<SpanEvent>() <= 48);
    }
}
