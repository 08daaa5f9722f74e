//! The request ladder: the one place a routed request is walked through
//! subset | full-with-retries → degrade.
//!
//! 1. **Subset route** — answered from the approximation set, never
//!    faulted.
//! 2. **Full route** — up to `retry.max_attempts()` attempts, each paying
//!    the fault plan's injected latency and possibly an injected
//!    transient error; transient failures back off with deterministic
//!    full jitter.
//! 3. **Degrade** — when the deadline expires or the retries run out, the
//!    request falls back to the approximation set, tagged
//!    [`ServedSource::DegradedSubset`]: the ASQP bet that a subset answer
//!    now beats a full answer too late (or never).
//!
//! Because the subset path cannot fault, every request resolves; `Err`
//! only carries errors the database itself raises for the query.
//!
//! [`serve`] never reads a clock, sleeps or executes a query itself. The
//! caller's [`Seam`] supplies time, work and a note-taker, so the threaded
//! server (wall clock, real sleeps, counters), both simulators (a virtual
//! `now`) and the streaming driver (no deadline, no-op pause) run the
//! same code and cannot drift apart.

use crate::backoff::RetryPolicy;
use crate::error::ServedSource;
use crate::event::EventKind;
use crate::fault::FaultPlan;
use asqp_db::DbResult;

/// What [`serve`] needs from its caller, for one request.
pub trait Seam {
    /// What an answer carries: a result set for a real backend, a row
    /// count in the simulators.
    type Rows;
    /// Budget left until the request's deadline; `u64::MAX` without one.
    fn remaining_ns(&mut self) -> u64;
    /// Let `ns` pass: sleep on a wall clock, advance a virtual one.
    fn pause(&mut self, ns: u64);
    /// Answer a subset-routed request from the approximation set.
    fn subset(&mut self) -> DbResult<Self::Rows>;
    /// One attempt at the full database (the faultable domain).
    fn full(&mut self) -> DbResult<Self::Rows>;
    /// Answer a degraded request from the approximation set.
    fn degraded(&mut self) -> DbResult<Self::Rows> {
        self.subset()
    }
    /// Row count of an answer, for [`EventKind::Resolved`].
    fn row_count(rows: &Self::Rows) -> usize;
    /// Told each step as it happens, in order.
    fn note(&mut self, kind: EventKind);
}

/// A resolved (possibly degraded) request.
#[derive(Debug)]
pub struct Served<R> {
    pub rows: R,
    pub source: ServedSource,
    /// Full-DB attempts begun (0 for subset-routed requests).
    pub attempts: u32,
}

fn resolve<S: Seam>(
    seam: &mut S,
    outcome: DbResult<S::Rows>,
    source: ServedSource,
    attempts: u32,
) -> DbResult<Served<S::Rows>> {
    match outcome {
        Ok(rows) => {
            seam.note(EventKind::Resolved {
                source,
                rows: S::row_count(&rows),
            });
            Ok(Served {
                rows,
                source,
                attempts,
            })
        }
        Err(e) => {
            seam.note(EventKind::Failed);
            Err(e)
        }
    }
}

/// Walk one admitted request, already routed (`answerable`), to its
/// resolution. `request` keys the fault plan and the backoff jitter.
pub fn serve<S: Seam>(
    seam: &mut S,
    retry: &RetryPolicy,
    faults: &FaultPlan,
    request: u64,
    answerable: bool,
) -> DbResult<Served<S::Rows>> {
    seam.note(EventKind::Routed { answerable });
    if answerable {
        let outcome = seam.subset();
        return resolve(seam, outcome, ServedSource::Subset, 0);
    }

    let mut attempts = 0u32;
    let reason = loop {
        let remaining = seam.remaining_ns();
        if remaining == 0 {
            break EventKind::DeadlineExceeded;
        }
        let attempt = attempts;
        let fault = faults.decide(request, attempt);
        seam.note(EventKind::Attempt {
            attempt,
            latency_ns: fault.latency_ns,
        });
        attempts += 1;
        if fault.latency_ns >= remaining {
            // The injected latency alone blows the deadline: pay what is
            // left of the budget, then degrade.
            seam.pause(remaining);
            break EventKind::DeadlineExceeded;
        }
        seam.pause(fault.latency_ns);
        if !fault.inject_error {
            match seam.full() {
                Err(e) if e.is_transient() => {}
                outcome => return resolve(seam, outcome, ServedSource::Full, attempts),
            }
        }
        seam.note(EventKind::TransientError { attempt });
        if attempts >= retry.max_attempts() {
            break EventKind::RetriesExhausted;
        }
        let sleep_ns = retry.backoff_ns(faults.seed, request, attempt);
        seam.note(EventKind::Backoff { attempt, sleep_ns });
        let capped = sleep_ns.min(seam.remaining_ns());
        seam.pause(capped);
    };
    seam.note(reason);
    let outcome = seam.degraded();
    resolve(seam, outcome, ServedSource::DegradedSubset, attempts)
}
