//! Seeded request traces and arrival schedules.
//!
//! A trace is a sequence of *blocks*. Every block of a workload holds the
//! same multiset of (group, query) pairs — each group's pool apportioned by
//! Zipf(1.1) weights, the weights `asqp_data::zipf_index` samples from — and
//! the seed decides the order inside each block, the tenant that sends each
//! request and the jitter of the arrival gaps. Because every block is the same work, the
//! per-block metrics of one run are measurements of one quantity, and runs
//! with different seeds do the same work in a different order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const ZIPF_S: f64 = 1.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub tenant: u64,
    pub group: u8,
    /// Index into the group's query pool.
    pub query: u16,
}

/// One COW group's part of every block.
#[derive(Debug, Clone)]
pub struct GroupTraffic {
    pub group: u8,
    pub pool_len: usize,
    pub tenants: Vec<u64>,
    pub per_block: usize,
}

/// How often each pool rank appears among `n` requests: `n` apportioned to
/// weights `1 / rank^s` by largest remainder, ties to the lower rank.
pub fn zipf_quotas(pool_len: usize, n: usize) -> Vec<usize> {
    if pool_len == 0 {
        return Vec::new();
    }
    let weights: Vec<f64> = (1..=pool_len).map(|k| (k as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut quotas: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..pool_len).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.partial_cmp(&ra).expect("finite").then(a.cmp(&b))
    });
    let assigned: usize = quotas.iter().sum();
    for &i in order.iter().take(n - assigned) {
        quotas[i] += 1;
    }
    quotas
}

fn stream_rng(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ stream.wrapping_mul(0xbf58_476d_1ce4_e5b9)
            ^ index.wrapping_mul(0x94d0_49bb_1331_11eb),
    )
}

/// Block `index` of trace `stream`.
pub fn block(groups: &[GroupTraffic], seed: u64, stream: u64, index: u64) -> Vec<Req> {
    let mut rng = stream_rng(seed, stream, index);
    let mut out = Vec::new();
    for g in groups {
        for (query, &count) in zipf_quotas(g.pool_len, g.per_block).iter().enumerate() {
            for _ in 0..count {
                out.push(Req {
                    tenant: g.tenants[rng.random_range(0..g.tenants.len())],
                    group: g.group,
                    query: query as u16,
                });
            }
        }
    }
    // Fisher–Yates.
    for i in (1..out.len()).rev() {
        out.swap(i, rng.random_range(0..=i));
    }
    out
}

pub fn blocks(groups: &[GroupTraffic], seed: u64, stream: u64, count: usize) -> Vec<Req> {
    (0..count as u64)
        .flat_map(|i| block(groups, seed, stream, i))
        .collect()
}

pub fn block_len(groups: &[GroupTraffic]) -> usize {
    groups.iter().map(|g| g.per_block).sum()
}

/// Due times (ns from the phase start) of `n` paced arrivals at
/// `rate_qps`: a constant-throughput schedule whose gaps the seed jitters
/// uniformly within ±25 %. Poisson gaps were tried first; in a run of
/// seconds their bursts decide the percentiles (47–65 % spread between
/// seeds on `explore_miss`), where a paced schedule leaves service time and
/// the queueing behind slow answers.
pub fn paced_due_ns(seed: u64, stream: u64, rate_qps: f64, n: usize) -> Vec<u64> {
    let mut rng = stream_rng(seed, stream, u64::MAX);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += rng.random_range(0.75..1.25) / rate_qps;
            (t * 1e9) as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups() -> Vec<GroupTraffic> {
        vec![
            GroupTraffic {
                group: 0,
                pool_len: 30,
                tenants: vec![0, 3, 6],
                per_block: 40,
            },
            GroupTraffic {
                group: 1,
                pool_len: 12,
                tenants: vec![1, 4],
                per_block: 20,
            },
        ]
    }

    #[test]
    fn quotas_sum_and_favour_the_head() {
        let q = zipf_quotas(30, 40);
        assert_eq!(q.iter().sum::<usize>(), 40);
        assert!(q.windows(2).all(|w| w[0] >= w[1]), "{q:?}");
        assert!(q[0] >= 8, "{q:?}");
        assert_eq!(zipf_quotas(5, 0), vec![0; 5]);
        assert_eq!(zipf_quotas(1, 7), vec![7]);
    }

    #[test]
    fn same_seed_same_trace_and_schedule() {
        let a = blocks(&groups(), 11, 1, 3);
        let b = blocks(&groups(), 11, 1, 3);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}").as_bytes(), format!("{b:?}").as_bytes());
        assert_eq!(
            paced_due_ns(11, 1, 500.0, 200),
            paced_due_ns(11, 1, 500.0, 200)
        );
        assert_ne!(
            paced_due_ns(11, 1, 500.0, 200),
            paced_due_ns(12, 1, 500.0, 200)
        );
        assert_ne!(a, blocks(&groups(), 12, 1, 3));
        assert_ne!(a, blocks(&groups(), 11, 2, 3));
    }

    #[test]
    fn every_block_is_the_same_multiset() {
        let g = groups();
        let key = |r: &Req| (r.group, r.query);
        let mut first: Vec<_> = block(&g, 5, 0, 0).iter().map(key).collect();
        first.sort();
        assert_eq!(first.len(), block_len(&g));
        for (seed, index) in [(5, 1), (5, 9), (77, 0)] {
            let mut other: Vec<_> = block(&g, seed, 0, index).iter().map(key).collect();
            other.sort();
            assert_eq!(first, other);
        }
        // Tenants stay inside their group.
        for r in block(&g, 5, 0, 0) {
            assert!(g[r.group as usize].tenants.contains(&r.tenant));
        }
    }

    #[test]
    fn arrivals_ascend_at_the_asked_rate() {
        let due = paced_due_ns(3, 0, 1000.0, 20_000);
        assert!(due
            .windows(2)
            .all(|w| w[1] - w[0] >= 749_000 && w[1] - w[0] <= 1_251_000));
        let secs = *due.last().unwrap() as f64 / 1e9;
        assert!((secs - 20.0).abs() < 0.2, "{secs}");
    }
}
