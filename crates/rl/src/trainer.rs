//! The training loop: parallel rollout collection plus one of three update
//! rules — PPO-clip with a KL penalty (the full ASQP-RL agent), A2C (the
//! paper's "−ppo" ablation) and REINFORCE (the "−ppo −ac" ablation).

use crate::env::Environment;
use crate::policy::ActorCritic;
use crate::rollout::{RolloutBuffer, StoredStep};
use asqp_nn::{func, reduce_in_order, Adam, Matrix, Mlp, MlpTape, SetBits, TransposedWeights};
use asqp_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Which update rule drives learning (the paper's ablation axis, Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AgentKind {
    /// Actor–critic + PPO clipped surrogate + KL penalty (full ASQP-RL).
    Ppo,
    /// Actor–critic with a plain policy-gradient loss ("ASQP-RL − ppo").
    A2c,
    /// REINFORCE: no critic baseline, no clipping ("ASQP-RL − ppo − ac").
    Reinforce,
}

/// Trainer hyper-parameters. Defaults follow the paper's §6.1 settings:
/// learning rate 5·10⁻⁵, KL coefficient 0.2, entropy coefficient 0.001.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainerConfig {
    pub agent: AgentKind,
    pub learning_rate: f32,
    pub gamma: f32,
    pub gae_lambda: f32,
    pub clip_epsilon: f32,
    pub kl_coef: f32,
    pub entropy_coef: f32,
    pub value_coef: f32,
    /// PPO optimisation epochs per iteration (K in Algorithm 3).
    pub update_epochs: usize,
    pub minibatch_size: usize,
    /// Parallel actor-learners (the paper trains 32 asynchronously).
    pub num_workers: usize,
    /// Rollout horizon per worker per iteration (T in Algorithm 3).
    pub steps_per_worker: usize,
    /// Hidden-layer widths for both networks.
    pub hidden: Vec<usize>,
    pub seed: u64,
}

impl TrainerConfig {
    /// Clamp degenerate values to their working minimums: `num_workers = 0`
    /// would otherwise request an empty rollout ensemble, and zero
    /// `steps_per_worker`/`minibatch_size` would starve every update.
    /// [`Trainer::new`] applies this, so a hand-built config can never
    /// silently train on no data.
    pub fn validated(mut self) -> Self {
        self.num_workers = self.num_workers.max(1);
        self.steps_per_worker = self.steps_per_worker.max(1);
        self.minibatch_size = self.minibatch_size.max(1);
        self
    }
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            agent: AgentKind::Ppo,
            learning_rate: 5e-5,
            gamma: 0.99,
            gae_lambda: 0.95,
            clip_epsilon: 0.2,
            kl_coef: 0.2,
            entropy_coef: 0.001,
            value_coef: 0.5,
            update_epochs: 4,
            minibatch_size: 64,
            num_workers: 4,
            steps_per_worker: 128,
            hidden: vec![128, 64],
            seed: 0,
        }
    }
}

/// Per-iteration training diagnostics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationStats {
    pub mean_episode_reward: f32,
    pub policy_loss: f32,
    pub value_loss: f32,
    pub entropy: f32,
    pub approx_kl: f32,
    pub steps: usize,
}

/// PPO/A2C/REINFORCE trainer over any [`Environment`].
pub struct Trainer {
    pub config: TrainerConfig,
    pub policy: ActorCritic,
    actor_opt: Adam,
    critic_opt: Adam,
    rng: StdRng,
    /// Hardware threads, read once here: `update_minibatch` runs thousands
    /// of times per training and the OS call re-reads cgroup files.
    hardware_threads: usize,
    /// What a minibatch's gradient shards write, one entry per shard
    /// position, and the transposed weights they all read: kept from one
    /// minibatch to the next so that an update allocates nothing.
    shards: Vec<ShardWork>,
    actor_wt: TransposedWeights,
    critic_wt: TransposedWeights,
}

impl Trainer {
    pub fn new(config: TrainerConfig, state_dim: usize, n_actions: usize) -> Self {
        let config = config.validated();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let policy = ActorCritic::new(state_dim, n_actions, &config.hidden, &mut rng);
        let actor_opt = Adam::new(config.learning_rate).with_max_grad_norm(Some(0.5));
        let critic_opt = Adam::new(config.learning_rate).with_max_grad_norm(Some(0.5));
        Trainer {
            config,
            policy,
            actor_opt,
            critic_opt,
            rng,
            hardware_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            shards: Vec::new(),
            actor_wt: TransposedWeights::default(),
            critic_wt: TransposedWeights::default(),
        }
    }

    /// Collect one iteration's worth of experience. With more than one
    /// worker, environments are cloned and rolled out on parallel threads
    /// (crossbeam scope), mirroring the paper's asynchronous actor-learners.
    // asqp::panic-free-audited: `seeds[0]` is guarded by `workers =
    // num_workers.max(1)` and `seeds.len() == workers`; worker buffers are
    // joined in spawn order so every index ranges over its own vector
    pub fn collect<E>(&mut self, env: &E) -> RolloutBuffer
    where
        E: Environment + Clone + Send + Sync,
    {
        let workers = self.config.num_workers.max(1);
        let steps = self.config.steps_per_worker;
        let policy = &self.policy;
        let seeds: Vec<u64> = (0..workers).map(|_| self.rng.random()).collect();

        if workers == 1 {
            return rollout_worker(env.clone(), policy, steps, seeds[0]);
        }

        let mut buffers: Vec<RolloutBuffer> = Vec::with_capacity(workers);
        // asqp::in-order-merge: handles joined in spawn (seed) order below
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = seeds
                .iter()
                .map(|&seed| {
                    let env = env.clone();
                    scope.spawn(move |_| rollout_worker(env, policy, steps, seed))
                })
                .collect();
            for h in handles {
                buffers.push(h.join().expect("rollout worker panicked"));
            }
        })
        .expect("crossbeam scope failed");

        let mut merged = RolloutBuffer::new();
        for b in buffers {
            merged.extend(b);
        }
        merged
    }

    /// One full iteration: collect + update. Returns diagnostics, and —
    /// when a telemetry recorder is installed — emits per-iteration spans,
    /// rollout throughput and the loss gauges.
    pub fn train_iteration<E>(&mut self, env: &E) -> IterationStats
    where
        E: Environment + Clone + Send + Sync,
    {
        let _iter_span = telemetry::span("rl.iteration");
        // asqp::allow(nondet): telemetry-gated timing; never feeds scores
        let collect_start = telemetry::enabled().then(Instant::now);
        let buf = {
            let _collect_span = telemetry::span("rl.collect");
            self.collect(env)
        };
        if let Some(t0) = collect_start {
            let secs = t0.elapsed().as_secs_f64();
            if secs > 0.0 {
                telemetry::gauge("rl.rollout_steps_per_sec", buf.len() as f64 / secs);
            }
            telemetry::counter("rl.steps", buf.len() as u64);
        }
        let mean_episode_reward = buf.mean_episode_reward();
        let (policy_loss, value_loss, entropy, approx_kl) = {
            let _update_span = telemetry::span("rl.update");
            self.update(&buf)
        };
        if telemetry::enabled() {
            telemetry::counter("rl.iterations", 1);
            telemetry::gauge("rl.mean_episode_reward", mean_episode_reward as f64);
            telemetry::gauge("rl.policy_loss", policy_loss as f64);
            telemetry::gauge("rl.value_loss", value_loss as f64);
            telemetry::gauge("rl.entropy", entropy as f64);
            telemetry::gauge("rl.approx_kl", approx_kl as f64);
        }
        IterationStats {
            mean_episode_reward,
            policy_loss,
            value_loss,
            entropy,
            approx_kl,
            steps: buf.len(),
        }
    }

    /// Gradient update(s) from a rollout buffer. Public so determinism
    /// tests (and external training drivers) can feed an identical buffer
    /// through trainers configured with different worker counts and assert
    /// byte-identical parameters. Returns mean (policy_loss, value_loss,
    /// entropy, approx_kl) over the minibatches.
    pub fn update(&mut self, buf: &RolloutBuffer) -> (f32, f32, f32, f32) {
        if buf.is_empty() {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let cfg = self.config.clone();
        let (advantages, returns) = match cfg.agent {
            // REINFORCE has no baseline: advantage = normalised return.
            AgentKind::Reinforce => {
                let (_, ret) = buf.gae(cfg.gamma, 1.0);
                let n = ret.len() as f32;
                let mean = ret.iter().sum::<f32>() / n;
                let var = ret.iter().map(|r| (r - mean) * (r - mean)).sum::<f32>() / n;
                let std = var.sqrt().max(1e-6);
                let adv: Vec<f32> = ret.iter().map(|r| (r - mean) / std).collect();
                (adv, ret)
            }
            _ => buf.normalized_advantages(cfg.gamma, cfg.gae_lambda),
        };

        let epochs = match cfg.agent {
            AgentKind::Ppo => cfg.update_epochs,
            _ => 1, // single pass: re-using stale data needs the PPO trust region
        };

        let n = buf.len();
        let mut order: Vec<usize> = (0..n).collect();
        let (mut pl_sum, mut vl_sum, mut ent_sum, mut kl_sum) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut batches = 0usize;

        for _ in 0..epochs {
            // Shuffle minibatch order.
            for i in (1..n).rev() {
                let j = self.rng.random_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(cfg.minibatch_size.max(1)) {
                let stats = self.update_minibatch(buf, chunk, &advantages, &returns);
                pl_sum += stats.0 as f64;
                vl_sum += stats.1 as f64;
                ent_sum += stats.2 as f64;
                kl_sum += stats.3 as f64;
                batches += 1;
            }
        }
        let b = batches.max(1) as f64;
        (
            (pl_sum / b) as f32,
            (vl_sum / b) as f32,
            (ent_sum / b) as f32,
            (kl_sum / b) as f32,
        )
    }

    /// One minibatch gradient step, sharded across data-parallel workers.
    ///
    /// The minibatch is cut into fixed [`GRAD_SHARD_ROWS`]-row logical
    /// shards; each shard runs an independent tape-based forward/backward
    /// against the shared (immutable) policy, and the per-shard gradients
    /// are reduced in shard order. The shard boundaries and the reduction
    /// order depend only on the minibatch — never on the thread count — so
    /// the updated parameters are byte-identical whether the shards run on
    /// one thread or many.
    ///
    /// The caller runs the first group of shards itself beside the spawned
    /// ones, and then reduces and steps the actor while, with a second
    /// thread, a spawned one does the same for the critic: a caller that
    /// spawns a thread per core and sleeps leaves their placement to the
    /// scheduler, which on two cores put both on one often enough to cost a
    /// quarter of the update (DESIGN §8). The optimiser phase is a second
    /// scope and not the shards' own: there every thread reads both
    /// networks, here each writes one of them, and a scoped thread keeps
    /// what it borrowed until its scope ends.
    ///
    /// Returns (policy_loss, value_loss, entropy, approx_kl) for the batch.
    // asqp::panic-free-audited: the `.expect()`s re-raise a worker panic
    // (join), or take the first of the shards of a non-empty minibatch
    fn update_minibatch(
        &mut self,
        buf: &RolloutBuffer,
        idx: &[usize],
        advantages: &[f32],
        returns: &[f32],
    ) -> (f32, f32, f32, f32) {
        let _span = telemetry::span("rl.update_minibatch");
        let m = idx.len();
        let n_shards = m.div_ceil(GRAD_SHARD_ROWS);
        let threads = self
            .config
            .num_workers
            .min(n_shards)
            .min(self.hardware_threads)
            .max(1);
        if self.shards.len() < n_shards {
            self.shards.resize_with(n_shards, ShardWork::default);
        }
        let shards = &mut self.shards[..n_shards];
        let ActorCritic { actor, critic, .. } = &mut self.policy;
        let use_critic = !matches!(self.config.agent, AgentKind::Reinforce);

        {
            let _grad_span = telemetry::span("rl.update.grad");
            // The weights do not change within a minibatch: every shard's
            // backward pass reads the same transposes.
            actor.transpose_weights_into(false, &mut self.actor_wt);
            if use_critic {
                critic.transpose_weights_into(false, &mut self.critic_wt);
            }
            let minibatch = Minibatch {
                actor,
                critic: use_critic.then_some((&*critic, &self.critic_wt)),
                actor_wt: &self.actor_wt,
                cfg: &self.config,
                buf,
                advantages,
                returns,
                rows: m,
            };
            // Static contiguous partition of the shard list: which thread
            // runs a shard changes nothing that the shard writes.
            let per_thread = n_shards.div_ceil(threads);
            let mut groups = shards
                .chunks_mut(per_thread)
                .zip(idx.chunks(per_thread * GRAD_SHARD_ROWS));
            let own = groups.next().expect("minibatch has at least one shard");
            let run = |(group, rows): (&mut [ShardWork], &[usize])| {
                for (shard, rows) in group.iter_mut().zip(rows.chunks(GRAD_SHARD_ROWS)) {
                    shard.run(&minibatch, rows);
                }
            };
            // asqp::in-order-merge: a shard writes only its own entry of `shards`; they are reduced in shard order below
            crossbeam::thread::scope(|scope| {
                let beside: Vec<_> = groups.map(|g| scope.spawn(move |_| run(g))).collect();
                run(own);
                for h in beside {
                    h.join().expect("gradient shard worker panicked");
                }
            })
            .expect("crossbeam scope failed");
        }

        // In-order reduction into the first shard's gradients (f32 addition
        // is not associative; see the determinism note above), then the
        // optimiser step: per network, the two side by side, since they
        // share no state.
        let (policy_loss, value_loss, entropy_total, approx_kl) = shards
            .iter()
            .map(|s| (s.policy_loss, s.value_loss, s.entropy, s.approx_kl))
            .reduce(|a, s| (a.0 + s.0, a.1 + s.1, a.2 + s.2, a.3 + s.3))
            .expect("minibatch has at least one shard");
        let (first, rest) = shards
            .split_first_mut()
            .expect("minibatch has at least one shard");
        let rest: &[ShardWork] = rest;
        let critic_opt = &mut self.critic_opt;
        let critic_acc = &mut first.critic;
        let mut critic_step = use_critic.then_some(move || {
            let sum_squares = reduce_in_order(
                critic_acc.grads_mut(),
                rest.iter().map(|s| s.critic.grads()),
            );
            let params = critic.params_with_grads(critic_acc.grads());
            critic_opt.step_with_sum_squares(params, sum_squares);
        });
        // asqp::in-order-merge: nothing is merged; the spawned step reads the shards' critic gradients and writes the critic and its optimiser only
        crossbeam::thread::scope(|scope| {
            let reduce_span = telemetry::span("rl.update.reduce");
            let beside = critic_step
                .take_if(|_| threads > 1)
                .map(|mut step| scope.spawn(move |_| step()));
            let sum_squares = reduce_in_order(
                first.actor.grads_mut(),
                rest.iter().map(|s| s.actor.grads()),
            );
            drop(reduce_span);
            let _optim_span = telemetry::span("rl.update.optim");
            let params = actor.params_with_grads(first.actor.grads());
            self.actor_opt.step_with_sum_squares(params, sum_squares);
            if let Some(mut step) = critic_step {
                step();
            }
            if let Some(h) = beside {
                h.join().expect("critic optimiser step panicked");
            }
        })
        .expect("crossbeam scope failed");

        (
            policy_loss / m as f32,
            value_loss / m as f32,
            entropy_total / m as f32,
            approx_kl / m as f32,
        )
    }
}

/// Rows per gradient shard in [`Trainer::update_minibatch`]. Fixed (rather
/// than derived from the worker count) so the floating-point reduction tree
/// — and therefore every updated parameter bit — is the same no matter how
/// many threads execute the shards.
const GRAD_SHARD_ROWS: usize = 16;

/// What every shard of one minibatch reads.
struct Minibatch<'a> {
    actor: &'a Mlp,
    actor_wt: &'a TransposedWeights,
    /// The critic and its transposed weights; `None` for REINFORCE.
    critic: Option<(&'a Mlp, &'a TransposedWeights)>,
    cfg: &'a TrainerConfig,
    buf: &'a RolloutBuffer,
    advantages: &'a [f32],
    returns: &'a [f32],
    /// Rows of the whole minibatch: gradients are pre-divided by it, so
    /// shard sums equal the whole-batch gradient.
    rows: usize,
}

/// What one gradient shard writes: the set bits of its states, one tape per
/// network (the layer gradients are on the tapes), the loss gradients it
/// backpropagates, two scratch rows, and its (unnormalised) contribution to
/// the batch diagnostics. A shard overwrites all of it, so the trainer
/// keeps one per shard position and no update allocates.
#[derive(Default)]
struct ShardWork {
    states: SetBits,
    actor: MlpTape,
    critic: MlpTape,
    dlogits: Matrix,
    dvalues: Matrix,
    probs: Vec<f32>,
    ln_probs: Vec<f32>,
    policy_loss: f32,
    value_loss: f32,
    entropy: f32,
    approx_kl: f32,
}

impl ShardWork {
    /// Forward + backward for one gradient shard of a minibatch. A pure
    /// function of the shared policy and the shard's rows, so shards can
    /// run on any thread in any order.
    fn run(&mut self, mb: &Minibatch, shard_idx: &[usize]) {
        let Minibatch { cfg, buf, .. } = *mb;
        let rows = shard_idx.len();
        // Both networks' first layers, forward and backward, read the set
        // bits of the states, gathered once here.
        self.states.clear(buf.steps[shard_idx[0]].state.len());
        for &i in shard_idx {
            self.states.push_row(&buf.steps[i].state);
        }

        // ----- Actor: tape forward, per-row dL/dlogits, tape backward -----
        mb.actor.forward_tape(&self.states, &mut self.actor);
        let logits = self.actor.output();
        let n_actions = logits.cols();
        self.dlogits.reshape_for_overwrite(rows, n_actions);
        self.probs.resize(n_actions, 0.0);
        self.ln_probs.resize(n_actions, 0.0);
        let (probs, ln_probs) = (&mut self.probs[..], &mut self.ln_probs[..]);
        let mut policy_loss = 0.0f32;
        let mut entropy_total = 0.0f32;
        let mut approx_kl = 0.0f32;

        for (bi, &i) in shard_idx.iter().enumerate() {
            let step = &buf.steps[i];
            let adv = mb.advantages[i];

            // Masked probabilities under the current policy.
            probs.copy_from_slice(logits.row(bi));
            func::mask_logits(probs, &step.mask);
            func::softmax_in_place(probs);
            let lp_new = probs[step.action].max(1e-20).ln();
            let entropy = func::entropy_keeping_ln(probs, ln_probs);
            entropy_total += entropy;
            approx_kl += step.logprob - lp_new;

            // dL/d(logprob of chosen action).
            let dl_dlp: f32 = match cfg.agent {
                AgentKind::Ppo => {
                    let ratio = (lp_new - step.logprob).exp();
                    let unclipped = ratio * adv;
                    let clipped = ratio.clamp(1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon) * adv;
                    policy_loss += -unclipped.min(clipped);
                    if unclipped <= clipped {
                        // min picks the unclipped term → gradient flows.
                        -ratio * adv
                    } else {
                        0.0
                    }
                }
                AgentKind::A2c | AgentKind::Reinforce => {
                    policy_loss += -lp_new * adv;
                    -adv
                }
            };

            // Assemble dL/dlogits for this row.
            let drow = self.dlogits.row_mut(bi);
            for a in 0..n_actions {
                let p = probs[a];
                if !step.mask[a] {
                    drow[a] = 0.0; // masked logits receive no gradient
                    continue;
                }
                let onehot = if a == step.action { 1.0 } else { 0.0 };
                let mut g = dl_dlp * (onehot - p);
                // Entropy bonus: L -= c_e * H  →  dL/dz = c_e * p (ln p + H).
                if p > 0.0 {
                    g += cfg.entropy_coef * p * (ln_probs[a] + entropy);
                }
                // KL penalty (PPO only): L += c_kl * KL(old ‖ new)
                //   → dL/dz = c_kl * (p_new − p_old).
                if matches!(cfg.agent, AgentKind::Ppo) {
                    g += cfg.kl_coef * (p - step.old_probs[a]);
                }
                drow[a] = g / mb.rows as f32;
            }
        }
        mb.actor
            .backward_tape(&self.states, &self.dlogits, mb.actor_wt, &mut self.actor);

        // ----- Critic: tape forward/backward ------------------------------
        let mut value_loss = 0.0f32;
        if let Some((critic, critic_wt)) = mb.critic {
            critic.forward_tape(&self.states, &mut self.critic);
            let values = self.critic.output();
            self.dvalues.reshape_for_overwrite(rows, 1);
            for (bi, &i) in shard_idx.iter().enumerate() {
                let err = values.at(bi, 0) - mb.returns[i];
                value_loss += err * err;
                *self.dvalues.at_mut(bi, 0) = cfg.value_coef * 2.0 * err / mb.rows as f32;
            }
            critic.backward_tape(&self.states, &self.dvalues, critic_wt, &mut self.critic);
        }

        self.policy_loss = policy_loss;
        self.value_loss = value_loss;
        self.entropy = entropy_total;
        self.approx_kl = approx_kl;
    }
}

/// Roll the policy out in one environment for `steps` transitions,
/// resetting on episode end.
fn rollout_worker<E: Environment>(
    mut env: E,
    policy: &ActorCritic,
    steps: usize,
    seed: u64,
) -> RolloutBuffer {
    // Per-worker wall-clock lands in a histogram (workers run on their own
    // threads, so a span here would fragment the iteration tree).
    // asqp::allow(nondet): telemetry-gated timing; never feeds rewards
    let worker_start = telemetry::enabled().then(Instant::now);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buf = RolloutBuffer::new();
    let mut state = env.reset();
    for _ in 0..steps {
        let mask = env.valid_actions();
        if !mask.iter().any(|&m| m) {
            state = env.reset();
            continue;
        }
        let sample = policy.act(&state, &mask, &mut rng);
        let tr = env.step(sample.action);
        buf.push(StoredStep {
            state: std::mem::take(&mut state),
            action: sample.action,
            reward: tr.reward,
            done: tr.done,
            logprob: sample.logprob,
            value: sample.value,
            mask,
            old_probs: sample.probs,
        });
        state = if tr.done { env.reset() } else { tr.state };
    }
    // Mark the trailing partial episode as done so GAE does not bootstrap
    // across iterations (bounded-episode environments make this benign).
    if let Some(last) = buf.steps.last_mut() {
        last.done = true;
    }
    if let Some(t0) = worker_start {
        telemetry::observe_duration("rl.worker_rollout_ns", t0.elapsed());
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ToyCoverageEnv;

    fn toy_config(agent: AgentKind) -> TrainerConfig {
        TrainerConfig {
            agent,
            learning_rate: 3e-3,
            num_workers: 2,
            steps_per_worker: 64,
            minibatch_size: 32,
            update_epochs: 4,
            hidden: vec![32],
            seed: 7,
            ..TrainerConfig::default()
        }
    }

    /// The toy env has one clearly-best action set; a trained policy should
    /// collect noticeably more reward than a random one.
    fn train_and_measure(agent: AgentKind) -> (f32, f32) {
        let weights = vec![0.0, 0.1, 0.0, 1.0, 0.05, 0.9, 0.0, 0.8];
        let env = ToyCoverageEnv::new(weights, 3);
        let mut trainer = Trainer::new(toy_config(agent), 8, 8);
        let first = trainer.train_iteration(&env).mean_episode_reward;
        let mut last = first;
        for _ in 0..40 {
            last = trainer.train_iteration(&env).mean_episode_reward;
        }
        (first, last)
    }

    #[test]
    fn ppo_improves_on_toy_env() {
        let (first, last) = train_and_measure(AgentKind::Ppo);
        // Optimal = 2.7; random ≈ 3/8 of 2.85 ≈ 1.07.
        assert!(
            last > first + 0.3 || last > 2.3,
            "PPO did not improve: {first} -> {last}"
        );
    }

    #[test]
    fn a2c_improves_on_toy_env() {
        let (first, last) = train_and_measure(AgentKind::A2c);
        assert!(
            last > first + 0.2 || last > 2.0,
            "A2C did not improve: {first} -> {last}"
        );
    }

    #[test]
    fn reinforce_runs_and_does_not_diverge() {
        let (_, last) = train_and_measure(AgentKind::Reinforce);
        assert!(last.is_finite());
        assert!(last > 0.5, "REINFORCE collapsed: {last}");
    }

    #[test]
    fn rollouts_respect_masks_and_episode_length() {
        let env = ToyCoverageEnv::new(vec![1.0; 6], 2);
        let mut trainer = Trainer::new(toy_config(AgentKind::Ppo), 6, 6);
        let buf = trainer.collect(&env);
        assert_eq!(buf.len(), 2 * 64);
        // Episodes of length 2: every other step is done.
        let dones = buf.steps.iter().filter(|s| s.done).count();
        assert!(dones >= buf.len() / 2 - 2);
        for s in &buf.steps {
            assert!(s.mask.iter().filter(|&&m| !m).count() <= 1);
        }
    }

    #[test]
    fn zero_num_workers_clamps_to_one_and_still_collects() {
        let env = ToyCoverageEnv::new(vec![0.5; 4], 2);
        let cfg = TrainerConfig {
            num_workers: 0,
            steps_per_worker: 16,
            hidden: vec![16],
            ..TrainerConfig::default()
        };
        let mut trainer = Trainer::new(cfg, 4, 4);
        assert_eq!(
            trainer.config.num_workers, 1,
            "num_workers = 0 must clamp to 1"
        );
        let buf = trainer.collect(&env);
        assert_eq!(buf.len(), 16, "clamped config still fills a rollout");
        let stats = trainer.train_iteration(&env);
        assert!(stats.steps > 0 && stats.policy_loss.is_finite());
    }

    #[test]
    fn validated_clamps_all_degenerate_knobs() {
        let cfg = TrainerConfig {
            num_workers: 0,
            steps_per_worker: 0,
            minibatch_size: 0,
            ..TrainerConfig::default()
        }
        .validated();
        assert_eq!(cfg.num_workers, 1);
        assert_eq!(cfg.steps_per_worker, 1);
        assert_eq!(cfg.minibatch_size, 1);
        // Sane values pass through untouched.
        let keep = TrainerConfig::default().validated();
        assert_eq!(keep.num_workers, TrainerConfig::default().num_workers);
    }

    #[test]
    fn deterministic_given_seed() {
        let env = ToyCoverageEnv::new(vec![0.3, 0.5, 0.9, 0.1], 2);
        let run = |seed: u64| {
            let mut cfg = toy_config(AgentKind::Ppo);
            cfg.seed = seed;
            let mut t = Trainer::new(cfg, 4, 4);
            (0..5)
                .map(|_| t.train_iteration(&env).mean_episode_reward)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn stats_are_finite() {
        let env = ToyCoverageEnv::new(vec![0.5; 5], 2);
        let mut t = Trainer::new(toy_config(AgentKind::Ppo), 5, 5);
        let s = t.train_iteration(&env);
        assert!(s.policy_loss.is_finite());
        assert!(s.value_loss.is_finite());
        assert!(s.entropy.is_finite() && s.entropy >= 0.0);
        assert!(s.approx_kl.is_finite());
        assert_eq!(s.steps, 2 * 64);
    }
}
