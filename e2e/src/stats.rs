//! Percentiles, the best-block estimator and run-to-run spread.

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// One metric computed once per block of identical work. The reported
/// value is the best block: co-tenant noise on a shared machine only ever
/// slows the program, and every block replays the same multiset of
/// requests, so the best block is the least disturbed measurement of the
/// same thing.
#[derive(Debug, Clone)]
pub struct PerBlock {
    pub values: Vec<f64>,
    pub samples_per_block: usize,
}

impl PerBlock {
    pub fn lowest(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn highest(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Percentile `p` of every run of `span` consecutive blocks of `block`
/// samples, sliding by one block (a trailing partial block is dropped). A
/// deep percentile needs a span of several blocks to have samples beyond it;
/// sliding gives nearly as many candidates for the best as there are blocks.
pub fn per_block_percentile(samples: &[f64], block: usize, span: usize, p: f64) -> PerBlock {
    let width = block * span;
    let values = (0..)
        .map(|i| i * block)
        .take_while(|from| from + width <= samples.len())
        .map(|from| percentile(&sorted(samples[from..from + width].to_vec()), p))
        .collect();
    PerBlock {
        values,
        samples_per_block: width,
    }
}

/// Completions per second over every run of `span` consecutive blocks of
/// `block` completion times (ascending, ns), sliding by one block; the
/// first block starts at `start_ns`. A rate over a few dozen milliseconds
/// measures the scheduler, so a span should last a good fraction of a second.
pub fn per_block_rate(done_ns: &[u64], block: usize, span: usize, start_ns: u64) -> PerBlock {
    // Block `i` ends at `ends[i + 1]`.
    let ends: Vec<u64> = std::iter::once(start_ns)
        .chain(done_ns.chunks_exact(block).map(|c| c[block - 1]))
        .collect();
    let width = block * span;
    let values = ends
        .iter()
        .zip(ends.iter().skip(span))
        .map(|(from, to)| width as f64 / ((to - from).max(1) as f64 / 1e9))
        .collect();
    PerBlock {
        values,
        samples_per_block: width,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so `--repeat` prints the spread the driver uses.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values.to_vec());
    let len = s.len();
    assert!(len >= 2, "quartiles need two values");
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.99), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn best_block_ignores_the_disturbed_block() {
        // Three blocks of four latencies; the middle one was slowed.
        let samples = [
            1.0, 2.0, 3.0, 4.0, 9.0, 9.0, 9.0, 9.0, 2.0, 2.0, 3.0, 5.0, 100.0,
        ];
        let p50 = per_block_percentile(&samples, 4, 1, 0.5);
        assert_eq!(p50.values, vec![2.0, 9.0, 2.0]);
        assert_eq!(p50.lowest(), 2.0);
        let p100 = per_block_percentile(&samples, 4, 1, 1.0);
        assert_eq!(p100.values, vec![4.0, 9.0, 5.0]);
        assert_eq!(p100.lowest(), 4.0);
        // Spans of two blocks slide by one block.
        let wide = per_block_percentile(&samples, 4, 2, 0.5);
        assert_eq!(wide.values, vec![4.0, 5.0]);
        assert_eq!(wide.samples_per_block, 8);
        assert!(per_block_percentile(&samples, 4, 4, 0.5).values.is_empty());
    }

    #[test]
    fn block_rates_chain_from_the_phase_start() {
        // Two blocks of two completions: 2 in 1 s, then 2 in 0.5 s.
        let done = [
            500_000_000,
            1_000_000_000,
            1_250_000_000,
            1_500_000_000,
            9_000_000_000,
        ];
        let r = per_block_rate(&done, 2, 1, 0);
        assert_eq!(r.values, vec![2.0, 4.0]);
        assert_eq!(r.highest(), 4.0);
        // One span of both blocks: 4 in 1.5 s.
        assert_eq!(per_block_rate(&done, 2, 2, 0).values, vec![4.0 / 1.5]);
        assert!(per_block_rate(&done, 2, 3, 0).values.is_empty());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
