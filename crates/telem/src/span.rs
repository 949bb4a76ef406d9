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
//!
//! The log is a window, not a history: it keeps the most recent
//! completed requests, whole, up to [`SPAN_WINDOW`] events, plus every
//! request still open, and evicts the oldest completed requests first.
//! Its memory is therefore bounded however long the service runs; the
//! metric registry is what counts every request over the uptime.

use cheri_trace::chrome::{self, Ph, Row};
use cheri_trace::json::JsonWriter;
use std::collections::{HashMap, VecDeque};
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

/// The most span events a [`SpanLog`] holds once no request is open:
/// the window of recent completed requests. At 56 bytes a held event
/// (a [`SpanEvent`] and its place in record order) it is under 1 MB,
/// and it holds 8 192 cached requests (2 events each), about 1 600
/// warm ones (10 each), or about 37 full-profile sweeps.
pub const SPAN_WINDOW: usize = 16_384;

/// An event and its place in record order.
type Recorded = (u64, SpanEvent);

/// The events of one request so far, and how many of its spans are
/// open.
#[derive(Default)]
struct Unit {
    open: u64,
    events: Vec<Recorded>,
}

/// What a [`SpanLog`] holds behind its mutex.
#[derive(Default)]
struct Window {
    /// The next event's place in record order.
    next: u64,
    /// Requests with a span open, by [`unit_of`] key.
    open: HashMap<(u64, u64), Unit>,
    /// Completed requests' events, whole requests in completion order.
    done: VecDeque<Recorded>,
    /// The number of events of each request in `done`, oldest first.
    done_lens: VecDeque<usize>,
}

/// The request an event belongs to: a wire request (`req` > 0) is one
/// unit whatever its jobs; work outside a wire request (`req` 0, e.g.
/// the in-process transparency gate) opens no request span, so each of
/// its jobs is a unit of its own.
fn unit_of(e: &SpanEvent) -> (u64, u64) {
    if e.req == 0 {
        (0, e.job)
    } else {
        (e.req, 0)
    }
}

impl Window {
    /// Adds `e` to its request; a request whose last open span this
    /// closes is complete and moves, whole, into the retained window.
    fn record(&mut self, e: SpanEvent) {
        let key = unit_of(&e);
        let unit = self.open.entry(key).or_default();
        if e.begin {
            unit.open += 1;
        } else {
            // An end with nothing open (an orphan) is kept, as a request
            // of its own, for `check_balance` to report.
            unit.open = unit.open.saturating_sub(1);
        }
        unit.events.push((self.next, e));
        self.next += 1;
        if unit.open == 0 {
            if let Some(unit) = self.open.remove(&key) {
                self.retain(unit.events);
            }
        }
    }

    /// Appends a completed request's events, first evicting the oldest
    /// completed requests, whole, until they fit in [`SPAN_WINDOW`]. A
    /// request larger than the window on its own is not kept.
    fn retain(&mut self, events: Vec<Recorded>) {
        while self.done.len() + events.len() > SPAN_WINDOW {
            let Some(oldest) = self.done_lens.pop_front() else { return };
            self.done.drain(..oldest);
        }
        self.done_lens.push_back(events.len());
        self.done.extend(events);
    }
}

/// A thread-shared log of span events, bounded by [`SPAN_WINDOW`]; its
/// epoch is the moment it was created.
///
/// Events are kept by request: a request's events are held together
/// from its first span until its last open span closes (for a wire
/// request, normally its `request` span), and are then committed to
/// the window of completed requests. When the window is full, the oldest
/// completed requests are evicted whole. A request with a span open is
/// never evicted, so the log always balances once drained and every
/// lane it exports is a whole request. The metric registry, not the
/// log, is the count over the service's uptime.
pub struct SpanLog {
    window: Mutex<Window>,
    epoch: Instant,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog { window: Mutex::new(Window::default()), epoch: Instant::now() }
    }
}

impl SpanLog {
    fn push(&self, begin: bool, phase: SpanPhase, req: u64, job: u64, tag: Option<&'static str>) {
        if let Ok(mut window) = self.window.lock() {
            // Read under the lock, so record order is time order.
            let t_us = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
            window.record(SpanEvent { begin, phase, req, job, t_us, tag });
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

    /// Opens a span that closes itself, tagged [`ABORTED`], if it is
    /// dropped before [`OpenSpan::end`] closes it, as when the work it
    /// brackets unwinds.
    pub fn open(&self, phase: SpanPhase, req: u64, job: u64) -> OpenSpan<'_> {
        self.begin(phase, req, job);
        OpenSpan { log: Some(self), phase, req, job }
    }

    /// Number of events held: the retained window of completed
    /// requests (at most [`SPAN_WINDOW`]) plus the open requests'
    /// events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.window
            .lock()
            .map_or(0, |w| w.done.len() + w.open.values().map(|u| u.events.len()).sum::<usize>())
    }

    /// Whether no events are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the held events, in record order.
    #[must_use]
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut held: Vec<Recorded> = match self.window.lock() {
            Ok(w) => {
                w.done.iter().chain(w.open.values().flat_map(|u| &u.events)).cloned().collect()
            }
            Err(_) => return Vec::new(),
        };
        held.sort_unstable_by_key(|(at, _)| *at);
        held.into_iter().map(|(_, e)| e).collect()
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

/// The tag on the end of a span closed because the work inside it
/// unwound ([`OpenSpan`]).
pub const ABORTED: &str = "aborted";

/// A span [`SpanLog::open`] opened and nothing has closed yet. Dropping
/// it closes it, tagged [`ABORTED`]: a panicking job leaves no span
/// open, so its request still completes, balances and can leave the
/// window.
#[must_use = "dropping an open span closes it as aborted"]
pub struct OpenSpan<'a> {
    log: Option<&'a SpanLog>,
    phase: SpanPhase,
    req: u64,
    job: u64,
}

impl OpenSpan<'_> {
    /// Closes the span, with `tag` if given.
    pub fn end(mut self, tag: Option<&'static str>) {
        self.close(tag);
    }

    fn close(&mut self, tag: Option<&'static str>) {
        if let Some(log) = self.log.take() {
            log.push(false, self.phase, self.req, self.job, tag);
        }
    }
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        self.close(Some(ABORTED));
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
    use std::collections::BTreeMap;

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
        // The window holds `SPAN_WINDOW` events, each with its 8-byte
        // place in record order, so the event size sets the log's
        // resident footprint.
        assert!(std::mem::size_of::<SpanEvent>() <= 48);
        assert!(std::mem::size_of::<Recorded>() <= 56);
    }

    /// Records request `req` as `depth` nested spans (`request`, then
    /// `queue`, `boot`, ... on job 0): `2 * depth` events.
    fn nested(log: &SpanLog, req: u64, depth: usize) {
        let phases = [
            SpanPhase::Request,
            SpanPhase::Queue,
            SpanPhase::Boot,
            SpanPhase::Simulate,
            SpanPhase::Serialize,
        ];
        for p in &phases[..depth] {
            log.begin(*p, req, 0);
        }
        for p in phases[..depth].iter().rev() {
            log.end(*p, req, 0);
        }
    }

    /// The number of held events per request id.
    fn held(log: &SpanLog) -> BTreeMap<u64, usize> {
        let mut by_req = BTreeMap::new();
        for e in log.events() {
            *by_req.entry(e.req).or_insert(0) += 1;
        }
        by_req
    }

    /// The requests a model window keeps from `completed` (request, event
    /// count) in completion order: the longest suffix that fits.
    fn expected_window(completed: &[(u64, usize)]) -> BTreeMap<u64, usize> {
        let mut kept = BTreeMap::new();
        let mut total = 0;
        for &(req, n) in completed.iter().rev() {
            if total + n > SPAN_WINDOW {
                break;
            }
            total += n;
            kept.insert(req, n);
        }
        kept
    }

    #[test]
    fn eviction_is_whole_requests_oldest_completed_first() {
        let log = SpanLog::default();
        let mut completed = Vec::new();
        // Request 1 starts first but completes after request 2, so 2 is
        // the older completed request and is evicted first.
        log.begin(SpanPhase::Request, 1, 0);
        nested(&log, 2, 3);
        completed.push((2, 6));
        log.end(SpanPhase::Request, 1, 0);
        completed.push((1, 2));
        // Then requests of 2 to 10 events until the window has wrapped
        // three times, checked against the model after every request.
        let mut req = 3;
        let mut recorded = 8;
        let mut first_eviction = None;
        while recorded < 3 * SPAN_WINDOW {
            let depth = 1 + (req as usize * 7) % 5;
            nested(&log, req, depth);
            completed.push((req, 2 * depth));
            recorded += 2 * depth;
            if first_eviction.is_none() && recorded > SPAN_WINDOW {
                // The first eviction takes request 2, whole, and leaves
                // the later-completed request 1.
                let by_req = held(&log);
                first_eviction = Some((by_req.get(&2).copied(), by_req.get(&1).copied()));
            }
            if req % 97 == 0 || recorded >= 3 * SPAN_WINDOW {
                assert!(held(&log) == expected_window(&completed), "after request {req}");
            }
            assert!(log.len() <= SPAN_WINDOW, "after request {req}: {}", log.len());
            req += 1;
        }
        assert_eq!(first_eviction, Some((None, Some(2))));
        log.check_balance().unwrap();
        let by_req = held(&log);
        assert!(!by_req.contains_key(&1) && by_req.contains_key(&(req - 1)));
    }

    #[test]
    fn an_open_request_is_never_evicted() {
        // Request 1 is answered (its request span ends) while its job 4
        // still simulates, as a sweep that fails on one job answers
        // before its other jobs finish: it stays open until that span
        // closes too.
        let log = SpanLog::default();
        log.begin(SpanPhase::Request, 1, 0);
        log.begin(SpanPhase::Simulate, 1, 4);
        log.end_tagged(SpanPhase::Request, 1, 0, "error");
        // Thousands of later requests complete around it, three windows'
        // worth.
        for req in 2..2 + 3 * SPAN_WINDOW as u64 / 2 {
            nested(&log, req, 1);
        }
        assert_eq!(held(&log).get(&1), Some(&3), "the open request keeps every event");
        assert_eq!(log.len(), SPAN_WINDOW + 3, "the window, plus the open request");
        let err = log.check_balance().unwrap_err();
        assert!(err.contains("req=1 job=4 phase=simulate"), "{err}");

        log.end_tagged(SpanPhase::Simulate, 1, 4, "cold");
        log.check_balance().unwrap();
        assert!(log.len() <= SPAN_WINDOW);
        // Completed last, it is now the newest request in the window.
        assert_eq!(held(&log).get(&1), Some(&4));
        let last = log.events().pop().unwrap();
        assert_eq!((last.req, last.phase, last.tag), (1, SpanPhase::Simulate, Some("cold")));
    }

    #[test]
    fn request_zero_is_committed_per_job_and_stays_bounded() {
        // The in-process gate opens no request span: each req-0 job is a
        // request of its own, so one job left open does not hold back the
        // others, and the log stays within the window.
        let log = SpanLog::default();
        log.begin(SpanPhase::Queue, 0, 7);
        let jobs = 3 * SPAN_WINDOW as u64 / 8;
        for run in 0..jobs {
            let job = run % 30 + 8; // jobs 8..38 reused, never job 7
            for phase in [SpanPhase::Queue, SpanPhase::Restore, SpanPhase::Simulate] {
                log.begin(phase, 0, job);
                log.end_tagged(phase, 0, job, "warm");
            }
            log.begin(SpanPhase::Serialize, 0, job);
            log.end(SpanPhase::Serialize, 0, job);
            assert!(log.len() <= SPAN_WINDOW + 1, "after run {run}: {}", log.len());
        }
        let events = log.events();
        assert!(events.iter().any(|e| e.job == 7), "the open job stays");
        let last_job = (jobs - 1) % 30 + 8;
        assert_eq!(events.iter().rev().take(8).filter(|e| e.job == last_job).count(), 8);
        log.end(SpanPhase::Queue, 0, 7);
        log.check_balance().unwrap();
        assert!(log.len() <= SPAN_WINDOW);
    }

    #[test]
    fn timestamps_never_run_backwards_under_concurrent_requests() {
        // Four threads record interleaving requests; the held events, in
        // record order, carry non-decreasing timestamps and each
        // request's events in the order its thread recorded them.
        let log = SpanLog::default();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let log = &log;
                s.spawn(move || {
                    for i in 0..3 * SPAN_WINDOW as u64 / 8 {
                        nested(log, 1 + t + 4 * i, 2);
                    }
                });
            }
        });
        let events = log.events();
        assert!(events.len() <= SPAN_WINDOW);
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us), "ts ran backwards");
        let mut by_req: BTreeMap<u64, Vec<(bool, SpanPhase)>> = BTreeMap::new();
        for e in &events {
            by_req.entry(e.req).or_default().push((e.begin, e.phase));
        }
        let shape = [
            (true, SpanPhase::Request),
            (true, SpanPhase::Queue),
            (false, SpanPhase::Queue),
            (false, SpanPhase::Request),
        ];
        assert!(by_req.values().all(|seq| seq == &shape));
        log.check_balance().unwrap();
    }
}
