//! `cheri-telem`: service-side telemetry for the CHERI reproduction.
//!
//! The guest side of the workspace is fully observable — the counter
//! snapshot (`cheri-trace`), per-PC profiles and the guest timeline
//! (`cheri-prof`) — but the
//! *host service* (`cheri-serve`) was a black box: a stuck worker or a
//! cold-cache stampede was invisible until the run ended. This crate is
//! the host-side counterpart, built on the same principles:
//!
//! * **u64-only, deterministic.** The [`TelemRegistry`] holds counters,
//!   gauges, and the workspace's one [`Histogram`] (log2 buckets, exact
//!   max) — all `u64`, snapshot in name order.
//! * **Hard invariants, not best-effort logging.** Correlated updates
//!   (a histogram observation and the counter that should count it) go
//!   through one [`TelemRegistry::batch`] critical section, so every
//!   scrape sees `histogram _count == counter` *exactly* — the
//!   consistency contract the metrics tests assert against a live
//!   server. Span streams ([`SpanLog`]) must balance begin/end per
//!   request id; [`SpanLog::check_balance`] is the machine check.
//! * **Always on.** One short uncontended mutex per update, at
//!   *service* rate (per request/phase, not per retired instruction).
//!
//! Spans have the shape of the guest spans the kernel hands the
//! profiler (a begin and an end with a kind, an id, and a timestamp),
//! but name different spans for a different caller: here the kind is a [`SpanPhase`], the id is a
//! (request, job) pair, and the timestamp is host microseconds since
//! the log was created. The log is a window of whole recent requests,
//! at most [`SPAN_WINDOW`] events once none is open, so its memory
//! does not grow with the requests served; the registry is the count
//! over the uptime. It renders through the workspace's one
//! Chrome trace-event writer (`cheri_trace::chrome`) with one lane
//! (`tid`) per request id.
//!
//! [`prom`] renders a registry snapshot as a Prometheus text exposition
//! (stable ordering, `# TYPE` lines, `_bucket`/`_sum`/`_count`
//! triplets) and parses one back with the format invariants checked —
//! the parser is what the golden tests and the `servemon` dashboard
//! both consume, and [`PromHist::quantile_upper`] is the one place a
//! percentile is derived from a histogram.

pub mod prom;
pub mod registry;
pub mod span;

pub use prom::{parse_exposition, render_exposition, Exposition, PromHist};
pub use registry::{Histogram, TelemBatch, TelemRegistry, TelemSnapshot};
pub use span::{OpenSpan, SpanEvent, SpanLog, SpanPhase, ABORTED, SPAN_WINDOW};
