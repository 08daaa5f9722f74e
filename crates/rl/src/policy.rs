//! Masked actor–critic policy: an actor MLP producing logits over the
//! action space and a critic MLP producing a state-value estimate
//! (paper §5.1: "a large input layer matching the action space's size,
//! followed by smaller fully-connected layers", softmax policy head, linear
//! value head).

use asqp_nn::{func, Activation, Mlp, SetBits};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What the policy returns when asked to act.
#[derive(Debug, Clone)]
pub struct ActionSample {
    pub action: usize,
    pub logprob: f32,
    pub value: f32,
    /// Full masked action distribution (stored for the KL penalty).
    pub probs: Vec<f32>,
}

/// Actor + critic networks sharing the state encoding convention.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActorCritic {
    pub actor: Mlp,
    pub critic: Mlp,
    pub n_actions: usize,
}

impl ActorCritic {
    /// `hidden` lists hidden-layer widths, e.g. `[256, 128]`.
    pub fn new(state_dim: usize, n_actions: usize, hidden: &[usize], rng: &mut impl Rng) -> Self {
        let mut actor_sizes = vec![state_dim];
        actor_sizes.extend_from_slice(hidden);
        actor_sizes.push(n_actions);
        let mut critic_sizes = vec![state_dim];
        critic_sizes.extend_from_slice(hidden);
        critic_sizes.push(1);
        ActorCritic {
            actor: Mlp::new(&actor_sizes, Activation::Tanh, rng),
            critic: Mlp::new(&critic_sizes, Activation::Tanh, rng),
            n_actions,
        }
    }

    /// Masked action distribution and state value for one state, from one
    /// scan of it into the set bits that both networks' first layers read.
    pub fn probs_and_value(&self, state: &[f32], mask: &[bool]) -> (Vec<f32>, f32) {
        let x = SetBits::of_row(state);
        let mut row = self.actor.infer_row(&x);
        func::mask_logits(&mut row, mask);
        func::softmax_in_place(&mut row);
        let value = self.critic.infer_row(&x)[0];
        (row, value)
    }

    /// Sample an action from the masked policy. One fused
    /// [`Self::probs_and_value`] evaluation per call — this is the rollout
    /// hot path.
    pub fn act(&self, state: &[f32], mask: &[bool], rng: &mut impl Rng) -> ActionSample {
        debug_assert!(mask.iter().any(|&m| m), "fully-masked state");
        let (probs, value) = self.probs_and_value(state, mask);
        let action = func::sample_categorical(&probs, rng);
        ActionSample {
            action,
            logprob: probs[action].max(1e-20).ln(),
            value,
            probs,
        }
    }

    /// Greedy (argmax) action — used at inference time (Algorithm 2).
    /// Skips the softmax: argmax over masked logits equals argmax over
    /// masked probabilities.
    pub fn act_greedy(&self, state: &[f32], mask: &[bool]) -> usize {
        let mut row = self.actor.infer_row(&SetBits::of_row(state));
        func::mask_logits(&mut row, mask);
        func::argmax(&row)
    }

    pub fn param_count(&self) -> usize {
        self.actor.param_count() + self.critic.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn masked_actions_never_sampled() {
        let mut rng = StdRng::seed_from_u64(0);
        let ac = ActorCritic::new(4, 4, &[8], &mut rng);
        let state = vec![0.0; 4];
        let mask = vec![true, false, true, false];
        for _ in 0..200 {
            let s = ac.act(&state, &mask, &mut rng);
            assert!(mask[s.action], "sampled masked action {}", s.action);
            assert_eq!(s.probs[1], 0.0);
            assert_eq!(s.probs[3], 0.0);
        }
    }

    #[test]
    fn probs_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let ac = ActorCritic::new(3, 5, &[8], &mut rng);
        let (p, _) = ac.probs_and_value(&[0.1, -0.2, 0.3], &[true; 5]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn greedy_matches_top_prob() {
        let mut rng = StdRng::seed_from_u64(2);
        let ac = ActorCritic::new(3, 4, &[8], &mut rng);
        let state = vec![1.0, 2.0, -1.0];
        let mask = vec![true; 4];
        let (probs, _) = ac.probs_and_value(&state, &mask);
        let greedy = ac.act_greedy(&state, &mask);
        let best = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(greedy, best);
    }

    /// The set-bit first layers give what the dense networks give.
    #[test]
    fn probs_and_value_match_the_dense_networks() {
        let mut rng = StdRng::seed_from_u64(5);
        let ac = ActorCritic::new(4, 6, &[16, 8], &mut rng);
        let state = vec![0.2, -1.3, 0.8, 0.0];
        let mask = vec![true, true, false, true, false, true];
        let (probs, value) = ac.probs_and_value(&state, &mask);
        let dense = asqp_nn::Matrix::from_row(&state);
        let mut logits = ac.actor.infer(&dense).into_data();
        func::mask_logits(&mut logits, &mask);
        func::softmax_in_place(&mut logits);
        assert_eq!(probs, logits);
        assert_eq!(value.to_bits(), ac.critic.infer(&dense).data()[0].to_bits());
        assert_eq!(ac.act_greedy(&state, &mask), func::argmax(&probs));
    }

    #[test]
    fn logprob_consistent_with_probs() {
        let mut rng = StdRng::seed_from_u64(3);
        let ac = ActorCritic::new(2, 3, &[4], &mut rng);
        let s = ac.act(&[0.5, 0.5], &[true, true, true], &mut rng);
        assert!((s.logprob.exp() - s.probs[s.action]).abs() < 1e-5);
    }
}
