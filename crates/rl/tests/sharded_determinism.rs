//! Byte-determinism of the sharded PPO update.
//!
//! `Trainer::update_minibatch` cuts every minibatch into fixed 16-row
//! gradient shards and reduces them in shard order, so the updated
//! parameters must be *byte-identical* no matter how many worker threads
//! execute the shards. These tests feed one externally-collected rollout
//! buffer to trainers that differ only in `num_workers` and compare the
//! serialized policies bit for bit.
//!
//! Trainers compared only with each other would all pass a change that
//! moves every one of them alike, so each agent's serialized policy is also
//! pinned to an FNV-1a digest recorded at `c6ab3dd`, the commit before the
//! update's non-GEMM half was rewritten (PR 20): a refactor of the update
//! path that claims "every parameter keeps its bits" must leave
//! [`RECORDED`] alone.
//!
//! Those digests cover the update on dense 6-wide states only, so a policy
//! trained end to end by `asqp_core::train` on an indicator state — the
//! rollout, the update and the set-bit first layer together — is pinned as
//! well ([`RECORDED_ASQP`]).
//!
//! (Full `train_iteration`s are *not* compared across worker counts:
//! `collect` draws one RNG seed per worker, so the experience itself
//! legitimately differs. The determinism contract covers the update path.)

use asqp_rl::env::ToyCoverageEnv;
use asqp_rl::trainer::{AgentKind, Trainer, TrainerConfig};
use asqp_rl::RolloutBuffer;

/// FNV-1a of the serialized policy after the three updates, per agent.
const RECORDED: [(AgentKind, u64); 3] = [
    (AgentKind::Ppo, 481_185_538_742_583_145),
    (AgentKind::A2c, 16_944_286_330_450_552_328),
    (AgentKind::Reinforce, 2_577_973_658_704_451_876),
];

/// FNV-1a of the serialized policy that [`asqp_core::train`] returns for
/// [`trained_asqp_policy`]'s fixture, recorded at `eeede9d`: unlike
/// [`RECORDED`], it covers the rollout and a 0/1 indicator state.
const RECORDED_ASQP: u64 = 7_037_234_288_747_571_325;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn config(agent: AgentKind, num_workers: usize) -> TrainerConfig {
    TrainerConfig {
        agent,
        num_workers,
        steps_per_worker: 96,
        minibatch_size: 40, // shards of 16/16/8: the ragged tail exercises shard chunking
        update_epochs: 2,
        hidden: vec![24, 12],
        seed: 42,
        ..TrainerConfig::default()
    }
}

fn collect_shared_buffer(agent: AgentKind) -> RolloutBuffer {
    let env = ToyCoverageEnv::new(vec![0.1, 0.9, 0.4, 0.7, 0.2, 0.6], 3);
    let mut collector = Trainer::new(config(agent, 1), 6, 6);
    collector.collect(&env)
}

fn policy_bytes_after_updates(agent: AgentKind, num_workers: usize, buf: &RolloutBuffer) -> String {
    let mut t = Trainer::new(config(agent, num_workers), 6, 6);
    // Several consecutive updates so Adam moment state and parameter drift
    // both participate in the comparison.
    for _ in 0..3 {
        t.update(buf);
    }
    serde_json::to_string(&t.policy).expect("policy serializes")
}

#[test]
fn ppo_update_byte_identical_across_worker_counts() {
    let buf = collect_shared_buffer(AgentKind::Ppo);
    let single = policy_bytes_after_updates(AgentKind::Ppo, 1, &buf);
    let double = policy_bytes_after_updates(AgentKind::Ppo, 2, &buf);
    let many = policy_bytes_after_updates(AgentKind::Ppo, 8, &buf);
    assert_eq!(single, double, "1-worker vs 2-worker params diverged");
    assert_eq!(single, many, "1-worker vs 8-worker params diverged");
}

#[test]
fn a2c_update_byte_identical_across_worker_counts() {
    let buf = collect_shared_buffer(AgentKind::A2c);
    let single = policy_bytes_after_updates(AgentKind::A2c, 1, &buf);
    let double = policy_bytes_after_updates(AgentKind::A2c, 2, &buf);
    assert_eq!(single, double, "A2C 1-worker vs 2-worker params diverged");
}

#[test]
fn reinforce_update_byte_identical_across_worker_counts() {
    let buf = collect_shared_buffer(AgentKind::Reinforce);
    let single = policy_bytes_after_updates(AgentKind::Reinforce, 1, &buf);
    let double = policy_bytes_after_updates(AgentKind::Reinforce, 2, &buf);
    let many = policy_bytes_after_updates(AgentKind::Reinforce, 8, &buf);
    assert_eq!(single, double, "REINFORCE 1-worker vs 2-worker diverged");
    assert_eq!(single, many, "REINFORCE 1-worker vs 8-worker diverged");
}

#[test]
fn updated_parameters_match_the_recorded_build() {
    let got: Vec<(AgentKind, u64)> = RECORDED
        .iter()
        .map(|&(agent, _)| {
            let buf = collect_shared_buffer(agent);
            let bytes = policy_bytes_after_updates(agent, 2, &buf);
            (agent, fnv1a(bytes.as_bytes()))
        })
        .collect();
    assert_eq!(got, RECORDED, "a parameter bit moved since c6ab3dd");
}

#[test]
fn repeated_update_on_same_buffer_is_reproducible() {
    let buf = collect_shared_buffer(AgentKind::Ppo);
    let a = policy_bytes_after_updates(AgentKind::Ppo, 4, &buf);
    let b = policy_bytes_after_updates(AgentKind::Ppo, 4, &buf);
    assert_eq!(a, b, "same config reruns must match exactly");
}

/// A trained ASQP-RL policy: GSL-PPO on a `Scale::Tiny` IMDB database, kept
/// small enough for a debug-mode test run.
fn trained_asqp_policy() -> String {
    use asqp_data::{imdb, Scale};
    let db = imdb::generate(Scale::Tiny, 3);
    let workload = imdb::workload(8, 3);
    let mut cfg = asqp_core::AsqpConfig::full(60, 20).with_seed(5);
    cfg.preprocess.n_representatives = 4;
    cfg.preprocess.max_actions = 64;
    cfg.preprocess.per_query_cap = 40;
    cfg.trainer.num_workers = 2;
    cfg.trainer.steps_per_worker = 48;
    cfg.trainer.minibatch_size = 40;
    cfg.trainer.update_epochs = 2;
    cfg.trainer.hidden = vec![32, 16];
    cfg.iterations = 3;
    let model = asqp_core::train(&db, &workload, &cfg).expect("fixture trains");
    serde_json::to_string(&model.policy).expect("policy serializes")
}

#[test]
fn trained_asqp_policy_matches_the_recorded_build() {
    let bytes = trained_asqp_policy();
    assert_eq!(
        fnv1a(bytes.as_bytes()),
        RECORDED_ASQP,
        "a bit of the trained policy moved since eeede9d"
    );
}
