//! Deterministic fault injection, seeded from a single `u64`.
//!
//! Every decision the chaos layer makes — whether a full-DB attempt fails
//! with a transient error, how much artificial latency it takes, which
//! worker stalls — is a pure [splitmix64] hash of `(seed, request,
//! attempt)` or `(seed, worker)`. There is no shared RNG state and no
//! draw-order dependence, so two runs against the same plan inject
//! byte-identical fault sequences no matter how threads interleave
//! (FoundationDB-style seeded simulation, scoped to the serving layer).
//!
//! Faults model the *remote* full database: the approximation set is
//! resident in memory on the serving tier, so the degraded path
//! (subset answers) is deliberately outside the fault domain — that is
//! what lets the degradation ladder guarantee that every admitted request
//! resolves.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

/// splitmix64 finalizer: a high-quality 64-bit mix, the standard choice
/// for stateless hash-based decision streams.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a hash to a uniform f64 in `[0, 1)` (53 mantissa bits).
#[inline]
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// FNV-1a over a byte string — used to derive per-query routing hashes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What the plan injects into one full-DB attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    /// Artificial latency to impose before the attempt executes.
    pub latency_ns: u64,
    /// Whether the attempt fails with a transient executor error.
    pub inject_error: bool,
}

/// A seeded, fully deterministic fault-injection plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed; equal seeds ⇒ byte-identical injected fault streams.
    pub seed: u64,
    /// Probability in `[0, 1]` that a full-DB attempt fails transiently.
    pub error_rate: f64,
    /// Probability in `[0, 1]` that an attempt takes a latency spike.
    pub spike_rate: f64,
    /// Artificial latency injected into every full-DB attempt.
    pub base_latency_ns: u64,
    /// Additional latency of one spike.
    pub spike_latency_ns: u64,
    /// Index of the one stalled worker, if any.
    pub stalled_worker: Option<usize>,
    /// How long the stalled worker sleeps before serving its first job.
    pub stall_ns: u64,
}

impl FaultPlan {
    /// No faults at all (production configuration).
    pub fn disabled() -> FaultPlan {
        FaultPlan {
            seed: 0,
            error_rate: 0.0,
            spike_rate: 0.0,
            base_latency_ns: 0,
            spike_latency_ns: 0,
            stalled_worker: None,
            stall_ns: 0,
        }
    }

    /// The reference chaos profile used by the test suite and `chaos_run`:
    /// ≥ 5% transient errors, latency spikes, and one stalled worker —
    /// the failure mix the acceptance run exercises. All magnitudes are in
    /// the microsecond range so a chaos run finishes in milliseconds.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            error_rate: 0.10,
            spike_rate: 0.15,
            base_latency_ns: 20_000,   // 20µs per attempt
            spike_latency_ns: 400_000, // +400µs on a spike
            stalled_worker: Some((splitmix64(seed ^ 0x57a1) % 4) as usize),
            stall_ns: 2_000_000, // 2ms
        }
    }

    /// Domain-separated decision hash for `(request, attempt, salt)`.
    #[inline]
    fn hash(&self, request: u64, attempt: u32, salt: u64) -> u64 {
        splitmix64(
            self.seed
                ^ splitmix64(request.wrapping_mul(0x9e37_79b9).wrapping_add(salt))
                ^ ((attempt as u64) << 32),
        )
    }

    /// The (pure) fault decision for one full-DB attempt of one request.
    pub fn decide(&self, request: u64, attempt: u32) -> FaultDecision {
        let err = unit_f64(self.hash(request, attempt, 0xE44)) < self.error_rate;
        let spike = unit_f64(self.hash(request, attempt, 0x5B1)) < self.spike_rate;
        let latency_ns = self.base_latency_ns + if spike { self.spike_latency_ns } else { 0 };
        FaultDecision {
            latency_ns,
            inject_error: err,
        }
    }

    /// Stall duration for `worker`, if the plan stalls it.
    pub fn worker_stall(&self, worker: usize) -> Option<u64> {
        match self.stalled_worker {
            Some(w) if w == worker && self.stall_ns > 0 => Some(self.stall_ns),
            _ => None,
        }
    }

    /// True when the plan injects nothing.
    pub fn is_disabled(&self) -> bool {
        self.error_rate == 0.0
            && self.spike_rate == 0.0
            && self.base_latency_ns == 0
            && self
                .worker_stall(self.stalled_worker.unwrap_or(0))
                .is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_the_seed() {
        let a = FaultPlan::chaos(42);
        let b = FaultPlan::chaos(42);
        for req in 0..200u64 {
            for attempt in 0..4u32 {
                assert_eq!(a.decide(req, attempt), b.decide(req, attempt));
            }
        }
        assert_eq!(a.stalled_worker, b.stalled_worker);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = FaultPlan::chaos(1);
        let b = FaultPlan::chaos(2);
        let diff = (0..400u64)
            .filter(|&r| a.decide(r, 0) != b.decide(r, 0))
            .count();
        assert!(diff > 0, "seeds must decorrelate the fault stream");
    }

    #[test]
    fn error_rate_is_roughly_respected() {
        let plan = FaultPlan {
            error_rate: 0.10,
            ..FaultPlan::chaos(7)
        };
        let errors = (0..10_000u64)
            .filter(|&r| plan.decide(r, 0).inject_error)
            .count();
        // 10% ± generous slack: this is a hash, not an RNG audit.
        assert!((700..=1300).contains(&errors), "errors = {errors}");
    }

    #[test]
    fn disabled_plan_injects_nothing() {
        let plan = FaultPlan::disabled();
        assert!(plan.is_disabled());
        for r in 0..100 {
            let d = plan.decide(r, 0);
            assert!(!d.inject_error);
            assert_eq!(d.latency_ns, 0);
        }
        assert_eq!(plan.worker_stall(0), None);
    }

    #[test]
    fn exactly_one_worker_stalls_under_chaos() {
        let plan = FaultPlan::chaos(3);
        let stalled: Vec<usize> = (0..8).filter(|&w| plan.worker_stall(w).is_some()).collect();
        assert_eq!(stalled.len(), 1);
        assert_eq!(plan.worker_stall(stalled[0]), Some(plan.stall_ns));
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"SELECT 1"), fnv1a(b"SELECT 2"));
    }
}
