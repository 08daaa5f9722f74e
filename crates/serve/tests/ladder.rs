//! Properties of the one request ladder, checked on the sequence of notes
//! it hands its seam: whatever the fault plan, deadline and backend do,
//! a request resolves exactly once, within its attempt budget, and says
//! why it degraded.

use asqp_db::{DbError, DbResult};
use asqp_serve::ladder::{serve, Seam};
use asqp_serve::{EventKind, FaultPlan, RetryPolicy, ServedSource};

/// What the full database does on an attempt the plan did not fault.
#[derive(Clone, Copy, Debug)]
enum FullDb {
    Answers,
    /// Busy on the first `n` real attempts, then answers.
    BusyThenAnswers(u32),
    Rejects,
}

/// A seam that records every note, on a virtual clock.
struct Recorder {
    now: u64,
    deadline_ns: u64,
    full_db: FullDb,
    full_calls: u32,
    notes: Vec<EventKind>,
}

impl Seam for Recorder {
    type Rows = usize;

    fn remaining_ns(&mut self) -> u64 {
        match self.deadline_ns {
            0 => u64::MAX,
            d => d.saturating_sub(self.now),
        }
    }

    fn pause(&mut self, ns: u64) {
        self.now += ns;
    }

    fn subset(&mut self) -> DbResult<usize> {
        self.now += 15_000;
        Ok(3)
    }

    fn full(&mut self) -> DbResult<usize> {
        self.now += 60_000;
        self.full_calls += 1;
        match self.full_db {
            FullDb::BusyThenAnswers(n) if self.full_calls <= n => Err(DbError::Busy("db".into())),
            FullDb::Answers | FullDb::BusyThenAnswers(_) => Ok(40),
            FullDb::Rejects => Err(DbError::UnknownTable("t".into())),
        }
    }

    fn degraded(&mut self) -> DbResult<usize> {
        self.subset()
    }

    fn row_count(rows: &usize) -> usize {
        *rows
    }

    fn note(&mut self, kind: EventKind) {
        self.notes.push(kind);
    }
}

fn fault_plans(seed: u64) -> Vec<FaultPlan> {
    vec![
        FaultPlan::disabled(),
        FaultPlan::chaos(seed),
        FaultPlan {
            error_rate: 1.0,
            ..FaultPlan::chaos(seed)
        },
        FaultPlan {
            spike_rate: 1.0,
            error_rate: 0.5,
            ..FaultPlan::chaos(seed)
        },
    ]
}

const RETRY: RetryPolicy = RetryPolicy::chaos();

fn is_resolution(k: &EventKind) -> bool {
    matches!(k, EventKind::Resolved { .. } | EventKind::Failed)
}

#[test]
fn every_walk_is_well_formed() {
    let backends = [
        FullDb::Answers,
        FullDb::BusyThenAnswers(2),
        FullDb::BusyThenAnswers(9),
        FullDb::Rejects,
    ];
    let mut degraded_walks = 0;
    let mut backoffs = 0;
    for seed in [0u64, 7, 42, 0xC0FFEE] {
        for faults in fault_plans(seed) {
            for deadline_ns in [0u64, 1, 300_000] {
                for full_db in backends {
                    for request in 0..24u64 {
                        let answerable = request % 3 == 0;
                        let mut seam = Recorder {
                            now: 0,
                            deadline_ns,
                            full_db,
                            full_calls: 0,
                            notes: Vec::new(),
                        };
                        let served = serve(&mut seam, &RETRY, &faults, request, answerable);
                        let notes = &seam.notes;
                        let ctx = format!(
                            "seed {seed} request {request} deadline {deadline_ns} \
                             {full_db:?} {faults:?}: {notes:?}"
                        );

                        assert_eq!(
                            notes.first(),
                            Some(&EventKind::Routed { answerable }),
                            "{ctx}"
                        );
                        assert_eq!(
                            notes.iter().filter(|k| is_resolution(k)).count(),
                            1,
                            "exactly one resolution: {ctx}"
                        );
                        assert!(notes.last().is_some_and(is_resolution), "{ctx}");

                        let attempts = notes
                            .iter()
                            .filter(|k| matches!(k, EventKind::Attempt { .. }))
                            .count() as u32;
                        assert!(attempts <= RETRY.max_attempts(), "{ctx}");
                        if answerable {
                            assert_eq!(attempts, 0, "{ctx}");
                        }

                        for (i, k) in notes.iter().enumerate() {
                            if matches!(k, EventKind::Backoff { .. }) {
                                backoffs += 1;
                                assert!(
                                    matches!(
                                        i.checked_sub(1).and_then(|p| notes.get(p)),
                                        Some(EventKind::TransientError { .. })
                                    ),
                                    "backoff must directly follow a transient error: {ctx}"
                                );
                            }
                        }

                        let reasons = notes
                            .iter()
                            .filter(|k| {
                                matches!(
                                    k,
                                    EventKind::DeadlineExceeded | EventKind::RetriesExhausted
                                )
                            })
                            .count();
                        match &served {
                            Ok(s) => {
                                assert_eq!(s.attempts, attempts, "{ctx}");
                                assert_eq!(
                                    notes.last(),
                                    Some(&EventKind::Resolved {
                                        source: s.source,
                                        rows: s.rows
                                    }),
                                    "{ctx}"
                                );
                                let degraded = s.source == ServedSource::DegradedSubset;
                                assert_eq!(reasons, usize::from(degraded), "{ctx}");
                                if degraded {
                                    degraded_walks += 1;
                                    let reason = notes.len().checked_sub(2).map(|i| &notes[i]);
                                    assert!(
                                        matches!(
                                            reason,
                                            Some(
                                                EventKind::DeadlineExceeded
                                                    | EventKind::RetriesExhausted
                                            )
                                        ),
                                        "the reason directly precedes the degraded answer: {ctx}"
                                    );
                                }
                                assert_eq!(s.source == ServedSource::Subset, answerable, "{ctx}");
                            }
                            Err(e) => {
                                assert!(!e.is_transient(), "{ctx}");
                                assert_eq!(notes.last(), Some(&EventKind::Failed), "{ctx}");
                                assert_eq!(reasons, 0, "{ctx}");
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(degraded_walks > 0 && backoffs > 0, "the matrix is vacuous");
}

/// The drift the copies had: when the injected latency alone blows the
/// deadline, the attempt that was begun counts.
#[test]
fn an_attempt_cut_short_by_the_deadline_counts() {
    let faults = FaultPlan {
        base_latency_ns: 500,
        ..FaultPlan::disabled()
    };
    let mut seam = Recorder {
        now: 0,
        deadline_ns: 100,
        full_db: FullDb::Answers,
        full_calls: 0,
        notes: Vec::new(),
    };
    let served = serve(&mut seam, &RETRY, &faults, 1, false).expect("degrades");
    assert_eq!(served.source, ServedSource::DegradedSubset);
    assert_eq!(served.attempts, 1);
    assert_eq!(seam.full_calls, 0, "the full database was never reached");
    assert_eq!(seam.now, 100 + 15_000, "paid the budget, then the subset");
}
