//! Drift in what a figure computes is caught by `cargo test`, not only by
//! CI's `figures` job: two figures are run through the same table at `tiny`
//! / seed 7 with timings zeroed and compared, stdout and JSON, with the
//! files CI compares all twelve against. They are the two cheapest in an
//! unoptimised build (0 s and 57 s; the next is 59 s): Fig. 4 is nothing but
//! timings, so it holds `timed` to zeroing every one of them, and §6.2 walks
//! the shared path — fixture, ASQP-RL training, the fast roster, Eq. 1. When
//! a change is meant to move a figure, re-record its golden (DESIGN.md §4)
//! in the same commit.

use asqp_bench::figures::{self, FIGURES};
use asqp_bench::BenchEnv;
use asqp_data::Scale;
use std::path::Path;

#[test]
fn cheapest_figures_match_their_goldens() {
    // This file is its own test binary, so nothing else reads the variable.
    std::env::set_var("ASQP_ZERO_TIMINGS", "1");
    let env = BenchEnv {
        scale: Scale::Tiny,
        seed: 7,
    };
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens");
    for fig in &FIGURES {
        for ext in ["stdout", "json"] {
            let golden = goldens.join(fig.id).with_extension(ext);
            assert!(golden.is_file(), "{} has no golden", golden.display());
        }
    }
    for id in ["fig04_motivation", "fig_diversity"] {
        let fig = figures::find(id).expect("a figure of the table");
        let mut stdout = Vec::new();
        let json = (fig.run)(&env, &mut stdout).expect("figure runs");
        for (ext, actual) in [("stdout", stdout), ("json", json.into_bytes())] {
            let golden = std::fs::read(goldens.join(id).with_extension(ext)).unwrap();
            assert!(
                actual == golden,
                "{id}.{ext} differs from its golden; it printed:\n{}",
                String::from_utf8_lossy(&actual)
            );
        }
    }
}
