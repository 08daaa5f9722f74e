//! Structured replay event log with a canonical rendering.
//!
//! Requests overlap in (virtual) time, so the *insertion order* of the
//! log interleaves them. Every event carries `(request, seq)` where `seq`
//! is the request's own step counter, and [`EventLog::render`] sorts by
//! that key: one request's lifecycle reads top to bottom, and same-seed
//! runs give a byte-for-byte stable transcript that the chaos suite (and
//! the CI `replay` job) can diff directly.

use crate::error::ServedSource;
use std::fmt;

/// One step in a request's lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// Admitted into the queue.
    Admitted,
    /// Rejected by admission control at the given queue depth.
    Rejected { depth: usize },
    /// Routed: does the planner consider the query answerable from the
    /// approximation set?
    Routed { answerable: bool },
    /// A full-DB attempt began, with the fault-plan latency it will pay.
    Attempt { attempt: u32, latency_ns: u64 },
    /// A full-DB attempt failed with an injected (or real) transient error.
    TransientError { attempt: u32 },
    /// Backoff scheduled before the next attempt.
    Backoff { attempt: u32, sleep_ns: u64 },
    /// The per-request deadline expired; the ladder degrades to subset.
    DeadlineExceeded,
    /// The retry budget ran out; the ladder degrades to subset.
    RetriesExhausted,
    /// The request resolved with an answer.
    Resolved { source: ServedSource, rows: usize },
    /// The request resolved with a fatal error.
    Failed,
    /// A streaming ingest batch was appended (`total` = table rows after).
    Appended { rows: usize, total: usize },
    /// A streaming batch of in-place row updates was applied.
    Updated { rows: usize },
    /// A data-drift observation ran; `refreshed` is whether the serving
    /// view was stale and got re-materialised.
    DataDrift { refreshed: bool },
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Admitted => write!(f, "admitted"),
            EventKind::Rejected { depth } => write!(f, "rejected depth={depth}"),
            EventKind::Routed { answerable } => write!(f, "routed answerable={answerable}"),
            EventKind::Attempt {
                attempt,
                latency_ns,
            } => {
                write!(f, "attempt n={attempt} latency_ns={latency_ns}")
            }
            EventKind::TransientError { attempt } => write!(f, "transient_error n={attempt}"),
            EventKind::Backoff { attempt, sleep_ns } => {
                write!(f, "backoff n={attempt} sleep_ns={sleep_ns}")
            }
            EventKind::DeadlineExceeded => write!(f, "deadline_exceeded"),
            EventKind::RetriesExhausted => write!(f, "retries_exhausted"),
            EventKind::Resolved { source, rows } => {
                write!(f, "resolved source={source} rows={rows}")
            }
            EventKind::Failed => write!(f, "failed"),
            EventKind::Appended { rows, total } => write!(f, "appended rows={rows} total={total}"),
            EventKind::Updated { rows } => write!(f, "updated rows={rows}"),
            EventKind::DataDrift { refreshed } => write!(f, "data_drift refreshed={refreshed}"),
        }
    }
}

/// Request accounting: how many requests took each exit. Every admitted
/// request must end up in exactly one resolution bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub admitted: u64,
    pub rejected: u64,
    pub resolved_subset: u64,
    pub resolved_full: u64,
    pub degraded: u64,
    pub retries: u64,
    pub fatal: u64,
}

impl ServerStats {
    pub fn resolved(&self) -> u64 {
        self.resolved_subset + self.resolved_full + self.degraded + self.fatal
    }

    /// Count one lifecycle step.
    pub(crate) fn note(&mut self, kind: &EventKind) {
        let bucket = match kind {
            EventKind::Admitted => &mut self.admitted,
            EventKind::Rejected { .. } => &mut self.rejected,
            EventKind::TransientError { .. } => &mut self.retries,
            EventKind::Failed => &mut self.fatal,
            EventKind::Resolved { source, .. } => match source {
                ServedSource::Subset => &mut self.resolved_subset,
                ServedSource::Full => &mut self.resolved_full,
                ServedSource::DegradedSubset => &mut self.degraded,
            },
            _ => return,
        };
        *bucket += 1;
    }
}

/// One logged event: `(request, seq)` is the canonical sort key.
#[derive(Debug)]
struct Event {
    request: u64,
    /// Per-request step counter (0, 1, 2, … within one request).
    seq: u32,
    kind: EventKind,
}

/// Append-only event log.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    pub fn new() -> EventLog {
        EventLog::default()
    }

    pub fn push(&mut self, request: u64, seq: u32, kind: EventKind) {
        self.events.push(Event { request, seq, kind });
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Canonical text transcript: one `req=<id> seq=<n> <kind>` line per
    /// event, sorted by `(request, seq)`. Byte-for-byte comparable across
    /// runs of the same deterministic schedule.
    pub fn render(&self) -> String {
        let mut events: Vec<&Event> = self.events.iter().collect();
        events.sort_by_key(|e| (e.request, e.seq));
        let mut out = String::new();
        for e in events {
            out.push_str(&format!("req={} seq={} {}\n", e.request, e.seq, e.kind));
        }
        out
    }
}

/// One request's run of a transcript: numbers its events into the log and
/// tallies them — the note-taker of the logged drivers.
pub(crate) struct Script<'a> {
    pub log: &'a mut EventLog,
    pub stats: &'a mut ServerStats,
    pub request: u64,
    pub seq: u32,
}

impl Script<'_> {
    pub fn note(&mut self, kind: EventKind) {
        self.stats.note(&kind);
        self.log.push(self.request, self.seq, kind);
        self.seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_insertion_order_independent() {
        let mut a = EventLog::new();
        a.push(1, 0, EventKind::Admitted);
        a.push(1, 1, EventKind::Routed { answerable: true });
        a.push(2, 0, EventKind::Admitted);

        let mut b = EventLog::new();
        b.push(2, 0, EventKind::Admitted);
        b.push(1, 1, EventKind::Routed { answerable: true });
        b.push(1, 0, EventKind::Admitted);

        assert_eq!(a.render(), b.render());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn render_format_is_stable() {
        let mut log = EventLog::new();
        log.push(
            7,
            0,
            EventKind::Attempt {
                attempt: 0,
                latency_ns: 20,
            },
        );
        log.push(
            7,
            1,
            EventKind::Resolved {
                source: ServedSource::DegradedSubset,
                rows: 4,
            },
        );
        assert_eq!(
            log.render(),
            "req=7 seq=0 attempt n=0 latency_ns=20\nreq=7 seq=1 resolved source=degraded rows=4\n"
        );
    }
}
