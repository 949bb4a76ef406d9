//! The `cheri-serve/v2` wire protocol: line-delimited JSON over TCP.
//!
//! Every message — request or event — is exactly one JSON object on one
//! line, terminated by `\n`, serialised with the workspace's hand-rolled
//! JSON ([`cheri_trace::json`]). A client sends one [`Request`] line and
//! then reads [`Event`] lines until a terminal event arrives (`report`,
//! `record`, `metrics`, `health`, `pong`, `ok`, or `error`); `progress`
//! events may precede the terminal event of a sweep.
//!
//! Payload reports ride *inside* the protocol as escaped JSON strings
//! rather than as nested objects: the transparency contract is
//! byte-identity with the batch `xsweep` report, and only a string
//! round-trip (escape on send, unescape on receive) preserves the exact
//! bytes of the inner document through the protocol layer. A job's
//! record is escaped once, when it is computed: every `record` reply is
//! [`encode_record`] around those stored bytes, the line
//! [`encode_event`] would write for the same [`Event::Record`].
//!
//! Job-shaped requests name their cell by the same strings the batch
//! binaries take on the command line (workload, strategy with aliases,
//! tag-cache KB) plus a problem-size [`Profile`]; they resolve to a
//! [`JobSpec`] through [`JobSpec::from_parts`], the one constructor all
//! by-name surfaces share, so a job spelled over the wire means exactly
//! the experiment the batch path would run.

use cheri_sweep::{JobSpec, Profile};
use cheri_trace::json::{self, Json, JsonWriter};
use std::collections::BTreeMap;

/// Schema identifier exchanged in `ping`/`pong`.
pub const SCHEMA: &str = "cheri-serve/v2";

/// How a served job result was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// Returned from the result cache; nothing executed.
    Cached,
    /// Executed warm: restored from the pooled phase-2 snapshot and run
    /// from the allocation → computation boundary.
    Warm,
    /// Executed cold: full boot + compile + exec + run.
    Cold,
}

impl Origin {
    /// The wire spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Origin::Cached => "cached",
            Origin::Warm => "warm",
            Origin::Cold => "cold",
        }
    }

    /// Parses the wire spelling.
    #[must_use]
    pub fn parse(name: &str) -> Option<Origin> {
        Some(match name {
            "cached" => Origin::Cached,
            "warm" => Origin::Warm,
            "cold" => Origin::Cold,
            _ => return None,
        })
    }
}

/// A job cell named by its command-line parts, as carried on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobParts {
    /// Workload name (`treeadd`, `bisort`, `mst`, `perimeter`,
    /// `vmloop`, `allocstress`).
    pub workload: String,
    /// Strategy name, aliases accepted (`cheri`, `c128`, ...).
    pub strategy: String,
    /// Tag-cache capacity in KB.
    pub tag_kb: usize,
    /// The problem-size preset the job runs at.
    pub profile: Profile,
}

impl JobParts {
    /// Resolves the parts to the canonical [`JobSpec`].
    ///
    /// # Errors
    ///
    /// As [`JobSpec::from_parts`]: names the unknown workload or
    /// strategy, or the refused `tag_kb`.
    pub fn spec(&self) -> Result<JobSpec, String> {
        JobSpec::from_parts(&self.workload, &self.strategy, self.tag_kb, self.profile.params())
    }
}

/// A client request: one line, one job of work (or one admin action).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness + schema probe.
    Ping,
    /// Run a whole profile matrix; stream progress; end with `report`.
    Sweep {
        /// Matrix preset to expand and run.
        profile: Profile,
        /// Consult/populate the result cache (`false` forces execution —
        /// the load generator's hot-path mode).
        cache: bool,
    },
    /// Run one cell; end with `record`.
    Job {
        /// The cell, by name.
        parts: JobParts,
        /// Consult/populate the result cache.
        cache: bool,
    },
    /// Prometheus text exposition of the telemetry registry; end with
    /// `metrics`.
    Metrics,
    /// Readiness probe; end with `health`.
    Health,
    /// Drain in-flight jobs and exit; end with `ok`.
    Shutdown,
}

/// The server's readiness, as answered by the `health` verb. `ready`
/// is the conjunction the CI probe keys on: every worker alive, any
/// requested prewarm finished, queue depth under the limit, and not
/// draining.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// The overall readiness verdict.
    pub ready: bool,
    /// Prewarm state: `none` (never requested — ready), `running`, or
    /// `done`.
    pub prewarm: String,
    /// Worker threads still running.
    pub workers_alive: u64,
    /// Worker threads configured.
    pub workers: u64,
    /// Tasks queued but not yet picked up.
    pub queue_depth: u64,
    /// Queue depth at or above which the server reports not ready.
    pub queue_limit: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// The server's crate version.
    pub version: String,
}

/// A server event: one line; terminal unless it is `progress`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Reply to `ping`.
    Pong {
        /// The server's protocol schema (must equal [`SCHEMA`]).
        schema: String,
    },
    /// One job of a sweep finished (emitted in completion order).
    Progress {
        /// Jobs finished so far.
        done: u64,
        /// Jobs in the sweep.
        total: u64,
        /// The finished job's key.
        key: String,
        /// How its result was obtained.
        origin: Origin,
    },
    /// A sweep finished: the full report, byte-exact.
    Report {
        /// Profile the report covers.
        profile: String,
        /// The serialised `SweepReport`, byte-identical to what the
        /// batch `xsweep` path writes for the same matrix.
        report: String,
        /// The server-assigned request id (the span lane in a telemetry
        /// dump, and the number in a persisted report's file name).
        req: u64,
    },
    /// A single job finished.
    Record {
        /// The job key.
        key: String,
        /// How the result was obtained.
        origin: Origin,
        /// The serialised `JobRecord`.
        record: String,
        /// The server-assigned request id (see [`Event::Report`]).
        req: u64,
    },
    /// Reply to `metrics`.
    Metrics {
        /// The Prometheus text exposition (format 0.0.4), byte-stable
        /// across idle scrapes.
        text: String,
    },
    /// Reply to `health`.
    Health(HealthSnapshot),
    /// Acknowledgement (shutdown accepted).
    Ok,
    /// The request failed; the connection stays usable.
    Error {
        /// What went wrong.
        message: String,
    },
}

fn job_fields(w: &mut JsonWriter, parts: &JobParts) {
    w.str_field("workload", &parts.workload);
    w.str_field("strategy", &parts.strategy);
    w.u64_field("tag_kb", parts.tag_kb as u64);
    w.str_field("profile", parts.profile.name());
}

/// Serialises a request as one JSON line (no trailing newline).
#[must_use]
pub fn encode_request(req: &Request) -> String {
    let mut w = JsonWriter::object();
    match req {
        Request::Ping => w.str_field("type", "ping"),
        Request::Sweep { profile, cache } => {
            w.str_field("type", "sweep");
            w.str_field("profile", profile.name());
            w.bool_field("cache", *cache);
        }
        Request::Job { parts, cache } => {
            w.str_field("type", "job");
            job_fields(&mut w, parts);
            w.bool_field("cache", *cache);
        }
        Request::Metrics => w.str_field("type", "metrics"),
        Request::Health => w.str_field("type", "health"),
        Request::Shutdown => w.str_field("type", "shutdown"),
    }
    w.close()
}

fn get_str(obj: &BTreeMap<String, Json>, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn get_bool(obj: &BTreeMap<String, Json>, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("field '{key}' must be a boolean")),
    }
}

fn get_u64(obj: &BTreeMap<String, Json>, key: &str) -> Result<u64, String> {
    obj.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing integer field '{key}'"))
}

fn get_profile(obj: &BTreeMap<String, Json>, default: Profile) -> Result<Profile, String> {
    match obj.get("profile") {
        None => Ok(default),
        Some(v) => {
            let name = v.as_str().ok_or("field 'profile' must be a string")?;
            Profile::parse(name).ok_or_else(|| format!("unknown profile '{name}'"))
        }
    }
}

fn get_parts(obj: &BTreeMap<String, Json>) -> Result<JobParts, String> {
    let parts = JobParts {
        workload: get_str(obj, "workload")?,
        strategy: get_str(obj, "strategy")?,
        // A size beyond `usize` saturates; `from_parts` refuses it.
        tag_kb: usize::try_from(get_u64(obj, "tag_kb")?).unwrap_or(usize::MAX),
        profile: get_profile(obj, Profile::Smoke)?,
    };
    // Validate names and the tag-cache size at the protocol boundary
    // so a bad request is rejected before any work is scheduled.
    parts.spec()?;
    Ok(parts)
}

/// Parses one request line. Field order and whitespace are irrelevant —
/// the line goes through the JSON parser, and job identity is decided
/// by the resolved [`JobSpec`] downstream, never by the raw bytes.
///
/// # Errors
///
/// Describes the first malformation found (bad JSON, unknown `type`,
/// missing field, unknown workload/strategy/profile name).
pub fn decode_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line.trim())?;
    let obj = v.as_obj().ok_or("request must be a JSON object")?;
    let kind = get_str(obj, "type")?;
    Ok(match kind.as_str() {
        "ping" => Request::Ping,
        "sweep" => Request::Sweep {
            profile: get_profile(obj, Profile::Smoke)?,
            cache: get_bool(obj, "cache", true)?,
        },
        "job" => Request::Job { parts: get_parts(obj)?, cache: get_bool(obj, "cache", true)? },
        "metrics" => Request::Metrics,
        "health" => Request::Health,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown request type '{other}'")),
    })
}

/// Serialises an event as one JSON line (no trailing newline).
#[must_use]
pub fn encode_event(ev: &Event) -> String {
    let mut w = JsonWriter::object();
    match ev {
        Event::Pong { schema } => {
            w.str_field("type", "pong");
            w.str_field("schema", schema);
        }
        Event::Progress { done, total, key, origin } => {
            w.str_field("type", "progress");
            w.u64_field("done", *done);
            w.u64_field("total", *total);
            w.str_field("key", key);
            w.str_field("origin", origin.name());
        }
        Event::Report { profile, report, req } => {
            w.str_field("type", "report");
            w.str_field("profile", profile);
            w.str_field("report", report);
            w.u64_field("req", *req);
        }
        Event::Record { key, origin, record, req } => {
            w.str_field("type", "record");
            w.str_field("key", key);
            w.str_field("origin", origin.name());
            w.str_field("record", record);
            w.u64_field("req", *req);
        }
        Event::Metrics { text } => {
            w.str_field("type", "metrics");
            w.str_field("text", text);
        }
        Event::Health(h) => {
            w.str_field("type", "health");
            w.bool_field("ready", h.ready);
            w.str_field("prewarm", &h.prewarm);
            w.u64_field("workers_alive", h.workers_alive);
            w.u64_field("workers", h.workers);
            w.u64_field("queue_depth", h.queue_depth);
            w.u64_field("queue_limit", h.queue_limit);
            w.u64_field("uptime_ms", h.uptime_ms);
            w.str_field("version", &h.version);
        }
        Event::Ok => w.str_field("type", "ok"),
        Event::Error { message } => {
            w.str_field("type", "error");
            w.str_field("message", message);
        }
    }
    w.close()
}

/// Serialises a `record` event whose record is already a JSON string
/// literal (quoted by [`json::quote_into`]) as one line (no trailing
/// newline): the bytes [`encode_event`] writes for
/// `Event::Record { key, origin, record, req }` with the unquoted
/// record, assembled without escaping the record again.
#[must_use]
pub fn encode_record(key: &str, origin: Origin, quoted_record: &str, req: u64) -> String {
    // The header fields, the request id, the closing brace and the
    // newline the server appends fit in 128 bytes beside the key.
    let mut w = JsonWriter::object_with_capacity(quoted_record.len() + key.len() + 128);
    w.str_field("type", "record");
    w.str_field("key", key);
    w.str_field("origin", origin.name());
    w.raw_field("record", quoted_record);
    w.u64_field("req", req);
    w.close()
}

/// Parses one event line.
///
/// # Errors
///
/// As [`decode_request`].
pub fn decode_event(line: &str) -> Result<Event, String> {
    let v = json::parse(line.trim())?;
    let obj = v.as_obj().ok_or("event must be a JSON object")?;
    let kind = get_str(obj, "type")?;
    let origin = |o: &BTreeMap<String, Json>| -> Result<Origin, String> {
        let name = get_str(o, "origin")?;
        Origin::parse(&name).ok_or_else(|| format!("unknown origin '{name}'"))
    };
    Ok(match kind.as_str() {
        "pong" => Event::Pong { schema: get_str(obj, "schema")? },
        "progress" => Event::Progress {
            done: get_u64(obj, "done")?,
            total: get_u64(obj, "total")?,
            key: get_str(obj, "key")?,
            origin: origin(obj)?,
        },
        "report" => Event::Report {
            profile: get_str(obj, "profile")?,
            report: get_str(obj, "report")?,
            req: get_u64(obj, "req")?,
        },
        "record" => Event::Record {
            key: get_str(obj, "key")?,
            origin: origin(obj)?,
            record: get_str(obj, "record")?,
            req: get_u64(obj, "req")?,
        },
        "metrics" => Event::Metrics { text: get_str(obj, "text")? },
        "health" => Event::Health(HealthSnapshot {
            ready: get_bool(obj, "ready", false)?,
            prewarm: get_str(obj, "prewarm")?,
            workers_alive: get_u64(obj, "workers_alive")?,
            workers: get_u64(obj, "workers")?,
            queue_depth: get_u64(obj, "queue_depth")?,
            queue_limit: get_u64(obj, "queue_limit")?,
            uptime_ms: get_u64(obj, "uptime_ms")?,
            version: get_str(obj, "version")?,
        }),
        "ok" => Event::Ok,
        "error" => Event::Error { message: get_str(obj, "message")? },
        other => return Err(format!("unknown event type '{other}'")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_sweep::MAX_TAG_KB;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Sweep { profile: Profile::Smoke, cache: true },
            Request::Sweep { profile: Profile::Full, cache: false },
            Request::Job {
                parts: JobParts {
                    workload: "treeadd".into(),
                    strategy: "cheri".into(),
                    tag_kb: 8,
                    profile: Profile::Smoke,
                },
                cache: true,
            },
            Request::Metrics,
            Request::Health,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = encode_request(&req);
            assert!(!line.contains('\n'), "one line: {line}");
            assert_eq!(decode_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn event_roundtrip() {
        let report = "{\"schema\":1,\"jobs\":[\n{\"key\":\"a/b\"}\n]}\n";
        let evs = [
            Event::Pong { schema: SCHEMA.into() },
            Event::Progress {
                done: 3,
                total: 20,
                key: "treeadd/cheri/tag8".into(),
                origin: Origin::Warm,
            },
            Event::Report { profile: "smoke".into(), report: report.into(), req: 4 },
            Event::Record {
                key: "mst/mips/tag8".into(),
                origin: Origin::Cached,
                record: "{\"key\":\"mst/mips/tag8\"}".into(),
                req: 17,
            },
            Event::Metrics { text: "# TYPE serve_jobs_total counter\nserve_jobs_total 3\n".into() },
            Event::Health(HealthSnapshot {
                ready: true,
                prewarm: "done".into(),
                workers_alive: 2,
                workers: 2,
                queue_depth: 0,
                queue_limit: 256,
                uptime_ms: 99,
                version: "0.1.0".into(),
            }),
            Event::Ok,
            Event::Error { message: "no pooled snapshot\nfor job".into() },
        ];
        for ev in evs {
            let line = encode_event(&ev);
            assert!(!line.contains('\n'), "one line: {line}");
            assert_eq!(decode_event(&line).unwrap(), ev, "{line}");
        }
    }

    #[test]
    fn embedded_report_bytes_survive_the_wire() {
        // Multi-line payload with quotes and tabs: the exact bytes must
        // come back out — this is what the byte-identity gate rides on.
        let payload = "{\"a\":1,\n\t\"b\":[2,3]}\n";
        let ev = Event::Report { profile: "full".into(), report: payload.into(), req: 1 };
        match decode_event(&encode_event(&ev)).unwrap() {
            Event::Report { report, .. } => assert_eq!(report, payload),
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn decode_is_layout_insensitive() {
        // Same request, different field order and whitespace.
        let a = decode_request(
            "{\"type\":\"job\",\"workload\":\"treeadd\",\"strategy\":\"cheri\",\"tag_kb\":8}",
        )
        .unwrap();
        let b = decode_request(
            "  { \"tag_kb\" : 8 , \"strategy\" : \"cheri\" ,\n \"workload\" : \"treeadd\" , \"type\" : \"job\" } ",
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn decode_rejects_unknown_names() {
        for verb in ["warp", "stats", "profile", "replay"] {
            let err = decode_request(&format!("{{\"type\":\"{verb}\"}}")).unwrap_err();
            assert_eq!(err, format!("unknown request type '{verb}'"));
        }
        assert!(decode_request(
            "{\"type\":\"job\",\"workload\":\"nosuch\",\"strategy\":\"cheri\",\"tag_kb\":8}"
        )
        .is_err());
        assert!(decode_request("{\"type\":\"sweep\",\"profile\":\"gigantic\"}").is_err());
        for ev in ["blip", "stats", "profile"] {
            assert!(decode_event(&format!("{{\"type\":\"{ev}\"}}")).is_err(), "{ev}");
        }
    }

    #[test]
    fn decode_range_checks_tag_kb() {
        let job = |kb: u64| {
            decode_request(&format!(
                "{{\"type\":\"job\",\"workload\":\"treeadd\",\"strategy\":\"cheri\",\"tag_kb\":{kb}}}"
            ))
        };
        // The whole ablation axis, the full profile's axis, and the
        // bound itself are accepted.
        let axes = cheri_sweep::TAG_ABLATION_KB.iter().chain(Profile::Full.tag_cache_axis());
        for &kb in axes.chain(&[MAX_TAG_KB]) {
            assert!(job(kb as u64).is_ok(), "tag_kb {kb} must be accepted");
        }
        // Anything above, or not a power of two, is refused, naming the
        // field.
        for kb in [3, 12, 1000, MAX_TAG_KB as u64 + 1, 1 << 40, u64::MAX] {
            let err = job(kb).unwrap_err();
            assert!(err.contains("'tag_kb'"), "{kb}: {err}");
        }
        assert_eq!(MAX_TAG_KB, 16 * cheri_sweep::TAG_ABLATION_KB.iter().max().unwrap());
    }

    #[test]
    fn decode_rejects_deep_nesting_with_a_named_error() {
        // A client line of a million `[` must be answered, not overflow
        // the connection thread's stack and abort the server.
        let err = decode_request(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128"), "{err}");
    }
}
