//! Typed outcomes of the serving layer.
//!
//! Every submitted request resolves to exactly one of three shapes: a
//! full-fidelity [`Answer`], a *degraded* [`Answer`] (the subset answer,
//! tagged, after the full-DB path missed its deadline or exhausted its
//! retries), or a [`ServeError`]. Admission-control rejections surface
//! synchronously from `MtServer::submit` as [`ServeError::Overloaded`] —
//! backpressure the client can act on immediately.

use asqp_db::{DbError, ResultSet};
use std::fmt;

/// How a request was ultimately answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedSource {
    /// Routed to and answered from the approximation set.
    Subset,
    /// Routed to and answered by the full database within the deadline.
    Full,
    /// Routed to the full database, but the deadline or retry budget ran
    /// out — answered from the approximation set instead (degraded).
    DegradedSubset,
}

impl fmt::Display for ServedSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ServedSource::Subset => "subset",
            ServedSource::Full => "full",
            ServedSource::DegradedSubset => "degraded",
        };
        write!(f, "{s}")
    }
}

/// A resolved (possibly degraded) answer.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Server-assigned request id (also the fault-plan key).
    pub request: u64,
    pub rows: ResultSet,
    pub source: ServedSource,
    /// Full-DB attempts consumed (0 for subset-routed requests).
    pub attempts: u32,
}

impl Answer {
    /// True when the deadline/retry ladder fell back to the subset.
    pub fn degraded(&self) -> bool {
        self.source == ServedSource::DegradedSubset
    }
}

/// Why a request could not be answered at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control rejected the request: the queue was already at
    /// its configured depth. Backpressure — retry later.
    Overloaded {
        /// The configured admission-queue depth that was hit.
        depth: usize,
    },
    /// The server is draining and admits no new requests.
    ShuttingDown,
    /// Multi-tenant submission for a tenant that was never registered
    /// (or already departed).
    UnknownTenant {
        /// The offending tenant id.
        tenant: u64,
    },
    /// A fatal database error (bad query, unknown table). Never retried:
    /// see [`DbError::class`](asqp_db::DbError::class).
    Fatal(DbError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth } => {
                write!(f, "overloaded: admission queue at depth {depth}")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::UnknownTenant { tenant } => {
                write!(f, "unknown tenant {tenant}: register before submitting")
            }
            ServeError::Fatal(e) => write!(f, "fatal: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Fatal(e) => Some(e),
            _ => None,
        }
    }
}

/// What every submitted request resolves to.
pub type ServeResult = Result<Answer, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        assert_eq!(
            ServeError::Overloaded { depth: 8 }.to_string(),
            "overloaded: admission queue at depth 8"
        );
        assert_eq!(
            ServeError::ShuttingDown.to_string(),
            "server is shutting down"
        );
        assert!(ServeError::Fatal(DbError::UnknownTable("t".into()))
            .to_string()
            .starts_with("fatal: unknown table"));
        assert_eq!(ServedSource::DegradedSubset.to_string(), "degraded");
    }

    #[test]
    fn degraded_flag_tracks_source() {
        let a = Answer {
            request: 1,
            rows: ResultSet::default(),
            source: ServedSource::DegradedSubset,
            attempts: 3,
        };
        assert!(a.degraded());
    }
}
