//! Retry policy with deterministic, jittered exponential backoff.
//!
//! The jitter is the "full jitter" scheme (sleep a uniform draw from
//! `[0, min(cap, base · 2^attempt)]`) that AWS popularised for thundering
//! -herd avoidance — but the draw is a pure hash of
//! `(seed, request, attempt)`, so chaos runs replay the exact same sleep
//! schedule for the same seed.

use crate::fault::splitmix64;

/// How transient full-DB failures are retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries + 1` attempts).
    pub max_retries: u32,
    /// Backoff scale for attempt 0.
    pub base_ns: u64,
    /// Upper bound on any single backoff sleep.
    pub cap_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_ns: 100_000,  // 100µs
            cap_ns: 2_000_000, // 2ms
        }
    }
}

impl RetryPolicy {
    /// The retry policy of the chaos profile, paired with
    /// [`FaultPlan::chaos`](crate::FaultPlan::chaos) by every replay
    /// scenario: three retries, backoff from 50 µs capped at 400 µs.
    pub const fn chaos() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_ns: 50_000,
            cap_ns: 400_000,
        }
    }

    /// Deterministic full-jitter backoff before retry number
    /// `attempt + 1`: uniform in `[0, min(cap, base · 2^attempt)]`,
    /// drawn by hashing `(seed, request, attempt)`.
    pub fn backoff_ns(&self, seed: u64, request: u64, attempt: u32) -> u64 {
        let ceiling = self
            .base_ns
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.cap_ns);
        if ceiling == 0 {
            return 0;
        }
        let h = splitmix64(seed ^ splitmix64(request ^ 0xB0FF) ^ ((attempt as u64) << 40));
        h % (ceiling + 1)
    }

    /// Total attempts this policy allows.
    pub fn max_attempts(&self) -> u32 {
        self.max_retries + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for req in 0..100u64 {
            for attempt in 0..4u32 {
                let a = p.backoff_ns(9, req, attempt);
                let b = p.backoff_ns(9, req, attempt);
                assert_eq!(a, b);
                let ceiling = (p.base_ns << attempt).min(p.cap_ns);
                assert!(a <= ceiling, "{a} beyond ceiling {ceiling}");
            }
        }
    }

    #[test]
    fn jitter_decorrelates_requests() {
        let p = RetryPolicy::default();
        let sleeps: std::collections::BTreeSet<u64> =
            (0..64u64).map(|r| p.backoff_ns(1, r, 0)).collect();
        assert!(sleeps.len() > 32, "jitter must spread sleeps out");
    }

    #[test]
    fn exponent_grows_the_ceiling_until_the_cap() {
        let p = RetryPolicy {
            max_retries: 10,
            base_ns: 1_000,
            cap_ns: 8_000,
        };
        // With many samples, the max observed sleep should approach the
        // ceiling for each attempt: 1k, 2k, 4k, then capped at 8k.
        for (attempt, ceiling) in [(0u32, 1_000u64), (1, 2_000), (2, 4_000), (5, 8_000)] {
            let max = (0..512u64)
                .map(|r| p.backoff_ns(3, r, attempt))
                .max()
                .unwrap();
            assert!(max <= ceiling);
            assert!(
                max > ceiling / 2,
                "attempt {attempt}: max {max} ceiling {ceiling}"
            );
        }
    }

    #[test]
    fn zero_base_means_no_sleep() {
        let p = RetryPolicy {
            max_retries: 2,
            base_ns: 0,
            cap_ns: 0,
        };
        assert_eq!(p.backoff_ns(1, 2, 0), 0);
        assert_eq!(p.max_attempts(), 3);
    }
}
