//! The update owns its milliseconds: every minibatch reports a gradient
//! phase, a reduction and an optimiser step under `rl.update_minibatch`,
//! and the three leave at most a tenth of it unattributed.
//!
//! A test binary of its own because the telemetry recorder is
//! process-wide: another test's trainer running beside this one would
//! record into it.

use asqp_rl::env::ToyCoverageEnv;
use asqp_rl::trainer::{Trainer, TrainerConfig};
use asqp_telemetry::{self as telemetry, MemoryRecorder};
use std::sync::Arc;

#[test]
fn every_minibatch_reports_grad_reduce_and_optim() {
    let n = 96;
    let weights: Vec<f32> = (0..n).map(|i| (i * 37 % 101) as f32 / 101.0).collect();
    let env = ToyCoverageEnv::new(weights, 24);
    let config = TrainerConfig {
        num_workers: 2,
        steps_per_worker: 64,
        minibatch_size: 32,
        update_epochs: 2,
        hidden: vec![64, 32],
        seed: 20,
        ..TrainerConfig::default()
    };
    let iterations = 2;
    // 2 workers x 64 steps in minibatches of 32, twice over, per iteration.
    let minibatches = iterations * 2 * (2 * 64 / 32);

    let recorder = Arc::new(MemoryRecorder::new());
    telemetry::scoped(recorder.clone(), || {
        let mut trainer = Trainer::new(config, n, n);
        for _ in 0..iterations {
            trainer.train_iteration(&env);
        }
    });

    let report = recorder.report();
    let minibatch = report
        .find_span("rl.update_minibatch")
        .expect("the update records its minibatches");
    assert_eq!(minibatch.count, minibatches as u64);
    let children: Vec<&str> = minibatch.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        children,
        ["rl.update.grad", "rl.update.reduce", "rl.update.optim"]
    );
    for child in &minibatch.children {
        assert_eq!(
            child.count, minibatch.count,
            "{} once per minibatch",
            child.name
        );
    }
    let attributed: u64 = minibatch.children.iter().map(|c| c.total_ns).sum();
    assert!(
        attributed as f64 >= 0.9 * minibatch.total_ns as f64,
        "grad + reduce + optim cover {attributed} ns of {} ns",
        minibatch.total_ns
    );
    // No thread of the update roots a second tree of the same names.
    assert_eq!(report.spans.len(), 1, "one tree: {:?}", report.spans);
}
