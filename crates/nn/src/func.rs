//! Functional ops used by policy heads: stable softmax / log-softmax,
//! masked categorical distributions, entropy.

use crate::matrix::Matrix;
use rand::Rng;

/// Numerically-stable softmax over each row.
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        softmax_in_place(row);
    }
    out
}

/// Stable in-place softmax over a slice.
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        // All -inf (fully masked): fall back to uniform to avoid NaNs; the
        // caller is responsible for never sampling from a fully-masked row.
        let u = 1.0 / row.len().max(1) as f32;
        row.iter_mut().for_each(|x| *x = u);
        return;
    }
    let mut sum = 0.0;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        row.iter_mut().for_each(|x| *x /= sum);
    }
}

/// log softmax of one row (stable).
pub fn log_softmax(row: &[f32]) -> Vec<f32> {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
    row.iter().map(|&x| x - log_sum).collect()
}

/// Apply an action mask to logits: invalid entries become -inf so their
/// probability is exactly zero (the paper's *action masking*, §5.1).
pub fn mask_logits(logits: &mut [f32], valid: &[bool]) {
    debug_assert_eq!(logits.len(), valid.len());
    for (l, &ok) in logits.iter_mut().zip(valid) {
        if !ok {
            *l = f32::NEG_INFINITY;
        }
    }
}

/// Sample an index from a probability row. Assumes `probs` sums to ~1.
pub fn sample_categorical(probs: &[f32], rng: &mut impl Rng) -> usize {
    let u: f32 = rng.random_range(0.0..1.0);
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    // Floating point slack: return the last non-zero entry.
    probs
        .iter()
        .rposition(|&p| p > 0.0)
        .unwrap_or(probs.len() - 1)
}

/// Index of the maximum probability (greedy decoding).
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate() {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

/// Shannon entropy of a probability row (nats).
pub fn entropy(probs: &[f32]) -> f32 {
    -probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * p.ln())
        .sum::<f32>()
}

/// [`entropy`], leaving `ln p` of every positive entry in `ln` (the other
/// entries are not written) for a caller that needs both, such as the
/// entropy bonus's gradient `p (ln p + H)`: one `ln` per action instead of
/// two. The same terms summed in the same order, so the same bits.
pub fn entropy_keeping_ln(probs: &[f32], ln: &mut [f32]) -> f32 {
    assert_eq!(probs.len(), ln.len(), "one ln slot per probability");
    -probs
        .iter()
        .zip(ln)
        .filter(|(&p, _)| p > 0.0)
        .map(|(&p, l)| {
            *l = p.ln();
            p * *l
        })
        .sum::<f32>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let mut row = vec![1000.0f32, 1001.0, 1002.0];
        softmax_in_place(&mut row);
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(row.iter().all(|p| p.is_finite()));
        assert!(row[2] > row[1] && row[1] > row[0]);
    }

    #[test]
    fn masked_entries_have_zero_probability() {
        let mut logits = vec![0.0f32, 1.0, 2.0, 3.0];
        mask_logits(&mut logits, &[true, false, true, false]);
        softmax_in_place(&mut logits);
        assert_eq!(logits[1], 0.0);
        assert_eq!(logits[3], 0.0);
        assert!((logits[0] + logits[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn sampling_respects_distribution() {
        let probs = vec![0.0f32, 0.25, 0.75, 0.0];
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[sample_categorical(&probs, &mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[3], 0);
        let frac2 = counts[2] as f64 / 4000.0;
        assert!((frac2 - 0.75).abs() < 0.05, "frac2 = {frac2}");
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let row = vec![0.3f32, -1.2, 2.0];
        let ls = log_softmax(&row);
        let mut sm = row.clone();
        softmax_in_place(&mut sm);
        for (l, p) in ls.iter().zip(&sm) {
            assert!((l.exp() - p).abs() < 1e-5);
        }
    }

    #[test]
    fn entropy_bounds() {
        let uniform = vec![0.25f32; 4];
        let point = vec![1.0f32, 0.0, 0.0, 0.0];
        assert!((entropy(&uniform) - (4.0f32).ln()).abs() < 1e-5);
        assert_eq!(entropy(&point), 0.0);
    }

    #[test]
    fn entropy_keeping_ln_is_entropy_and_fills_ln_where_p_is_positive() {
        let mut probs = vec![0.3f32, -1.2, 2.0, 0.7, -0.4, 1.1, 0.0];
        mask_logits(&mut probs, &[true, false, true, true, false, true, true]);
        softmax_in_place(&mut probs);
        let mut ln = vec![f32::NAN; probs.len()];
        let h = entropy_keeping_ln(&probs, &mut ln);
        assert_eq!(h.to_bits(), entropy(&probs).to_bits());
        for (&p, &l) in probs.iter().zip(&ln) {
            if p > 0.0 {
                assert_eq!(l.to_bits(), p.ln().to_bits());
            } else {
                assert!(l.is_nan(), "a masked entry's slot is left alone");
            }
        }
    }

    #[test]
    fn argmax_picks_peak() {
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
        assert_eq!(argmax(&[f32::NEG_INFINITY, -1.0]), 1);
    }

    #[test]
    fn softmax_rows_matrix() {
        let m = Matrix::from_vec(2, 2, vec![0.0, 0.0, 10.0, 0.0]);
        let s = softmax_rows(&m);
        assert!((s.at(0, 0) - 0.5).abs() < 1e-5);
        assert!(s.at(1, 0) > 0.99);
    }
}
