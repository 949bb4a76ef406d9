//! The guest timeline, rendered as a Chrome trace-event document by the
//! shared writer (`cheri_trace::chrome`) and loadable by Perfetto and
//! `chrome://tracing`. Timestamps are guest cycle counts — deterministic
//! and monotone — rather than host microseconds, so two runs of the same
//! job produce byte-identical timelines.

use cheri_trace::chrome::{self, Ph, Row};

/// One timeline entry.
#[derive(Clone, Debug)]
pub struct TimelineEvent {
    /// Event phase.
    pub ph: Ph,
    /// Event name (`"phase 2"`, `"syscall 4"`, …).
    pub name: String,
    /// Category (`"phase"`, `"syscall"`, `"domain"`, `"os"`).
    pub cat: &'static str,
    /// Timestamp in guest cycles.
    pub ts: u64,
    /// Duration in guest cycles (complete events only).
    pub dur: u64,
}

/// An append-only timeline; events arrive in execution order, so
/// timestamps are monotone non-decreasing by construction.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    events: Vec<TimelineEvent>,
}

impl Timeline {
    /// Appends one entry (`dur` counts only on [`Ph::Complete`] entries).
    pub fn push(&mut self, ph: Ph, cat: &'static str, name: String, ts: u64, dur: u64) {
        self.events.push(TimelineEvent { ph, name, cat, ts, dur });
    }

    /// The recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Drops every event.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Serialises the timeline as a Chrome trace-event document:
    /// `{"traceEvents":[...]}` with integer cycle timestamps, all on
    /// lane 1.
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows = chrome::events(self.events.iter().map(|e| Row {
            name: &e.name,
            cat: e.cat,
            ph: e.ph,
            ts: e.ts,
            dur: e.dur,
            tid: 1,
            args: None,
        }));
        chrome::document(&rows, "ns", &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_trace::json;

    #[test]
    fn timeline_json_parses_and_keeps_order() {
        let mut t = Timeline::default();
        t.push(Ph::Instant, "os", "exec".into(), 0, 0);
        t.push(Ph::Begin, "phase", "phase 1".into(), 10, 0);
        t.push(Ph::Complete, "syscall", "syscall 4".into(), 15, 120);
        t.push(Ph::End, "phase", "phase 1".into(), 200, 0);
        let doc = json::parse(&t.to_json()).expect("valid JSON");
        let events = doc.as_obj().unwrap()["traceEvents"].as_arr().unwrap();
        assert_eq!(events.len(), 4);
        let ts: Vec<u64> =
            events.iter().map(|e| e.as_obj().unwrap()["ts"].as_u64().unwrap()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps must be monotone");
        assert_eq!(events[2].as_obj().unwrap()["dur"].as_u64(), Some(120));
        assert_eq!(events[1].as_obj().unwrap()["ph"].as_str(), Some("B"));
    }
}
