//! The Chrome trace-event writer: the one renderer for timeline rows and
//! documents (`{"traceEvents":[...]}`), loadable in `ui.perfetto.dev`
//! and `chrome://tracing`. The guest profiler's timeline (guest cycles,
//! one lane) and the service's request spans (host microseconds, one
//! lane per request id) both render through it.

use crate::json::JsonWriter;

/// The `ph` field of a row: what kind of timeline entry it is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ph {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// Complete event carrying its own duration (`"X"`).
    Complete,
    /// Instant event (`"i"`).
    Instant,
}

impl Ph {
    /// The one-letter code the format uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Ph::Begin => "B",
            Ph::End => "E",
            Ph::Complete => "X",
            Ph::Instant => "i",
        }
    }
}

/// One trace-event row. Every row belongs to process 1; `tid` picks
/// the lane. `dur` is rendered only on [`Ph::Complete`] rows, and
/// `args`, when present, is an already rendered JSON object.
#[derive(Clone, Debug)]
pub struct Row<'a> {
    /// Event name (`"phase 2"`, `"simulate"`, …).
    pub name: &'a str,
    /// Category (`"phase"`, `"syscall"`, `"serve"`, …).
    pub cat: &'a str,
    /// Event phase.
    pub ph: Ph,
    /// Timestamp, in the document's time unit.
    pub ts: u64,
    /// Duration of a complete event.
    pub dur: u64,
    /// Lane.
    pub tid: u64,
    /// Extra event data.
    pub args: Option<String>,
}

impl Row<'_> {
    /// Renders the row as one JSON object with its keys in the order
    /// `name, cat, ph, ts, [dur], pid, tid, [args]` — the order of the
    /// committed `results/prof/*.timeline.json` files.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.str_field("name", self.name);
        w.str_field("cat", self.cat);
        w.str_field("ph", self.ph.as_str());
        w.u64_field("ts", self.ts);
        if self.ph == Ph::Complete {
            w.u64_field("dur", self.dur);
        }
        w.u64_field("pid", 1);
        w.u64_field("tid", self.tid);
        if let Some(args) = &self.args {
            w.raw_field("args", args);
        }
        w.close()
    }
}

/// Renders rows as a `traceEvents` JSON array.
#[must_use]
pub fn events<'a>(rows: impl IntoIterator<Item = Row<'a>>) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&row.to_json());
    }
    out.push(']');
    out
}

/// A complete document: the `events` array (from [`events`]), the
/// `displayTimeUnit` viewers use, then any `extra` top-level fields
/// (name, rendered JSON), which viewers ignore.
#[must_use]
pub fn document(events: &str, display_time_unit: &str, extra: &[(&str, &str)]) -> String {
    let mut w = JsonWriter::object();
    w.raw_field("traceEvents", events);
    w.str_field("displayTimeUnit", display_time_unit);
    for (name, raw) in extra {
        w.raw_field(name, raw);
    }
    w.close()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn row(ph: Ph, ts: u64) -> Row<'static> {
        Row { name: "phase 1", cat: "phase", ph, ts, dur: 120, tid: 1, args: None }
    }

    #[test]
    fn rows_keep_the_committed_key_order() {
        assert_eq!(
            row(Ph::Complete, 15).to_json(),
            r#"{"name":"phase 1","cat":"phase","ph":"X","ts":15,"dur":120,"pid":1,"tid":1}"#
        );
        assert_eq!(
            row(Ph::Begin, 10).to_json(),
            r#"{"name":"phase 1","cat":"phase","ph":"B","ts":10,"pid":1,"tid":1}"#
        );
        let served = Row { tid: 7, args: Some(r#"{"job":0}"#.into()), ..row(Ph::End, 3) };
        assert_eq!(
            served.to_json(),
            r#"{"name":"phase 1","cat":"phase","ph":"E","ts":3,"pid":1,"tid":7,"args":{"job":0}}"#
        );
    }

    #[test]
    fn documents_parse_with_every_row_in_order() {
        let rows = events([row(Ph::Instant, 0), row(Ph::Begin, 10), row(Ph::End, 200)]);
        let doc = document(&rows, "ns", &[("extra", "{}")]);
        let parsed = json::parse(&doc).expect("valid JSON");
        let obj = parsed.as_obj().unwrap();
        let ts: Vec<u64> = obj["traceEvents"]
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| e.as_obj().unwrap()["ts"].as_u64().unwrap())
            .collect();
        assert_eq!(ts, [0, 10, 200]);
        assert_eq!(obj["displayTimeUnit"].as_str(), Some("ns"));
        assert!(obj["extra"].as_obj().is_some());
        assert_eq!(events(std::iter::empty()), "[]");
    }
}
