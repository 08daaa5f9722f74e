//! Golden transcripts: the replay transcripts are byte-identical *across
//! commits*, not only across two runs of one build.
//!
//! `chaos_seed7.txt` was printed by the last commit that had a ladder per
//! driver (`chaos_run --seed 7`), before the drivers were moved onto the
//! one ladder and the one kernel. `stream_seed7.txt` is from the first
//! commit after: the one ladder added the `backoff` lines the streaming
//! copy never logged. `mt_seed7_20k_summary.txt` was re-recorded when a
//! tenant's group became its trace archetype instead of a k-means
//! cluster; its header, its request total (`admitted + rejected`) and
//! `departed` do not depend on grouping and did not move. A change that
//! alters any of them changes serving behaviour and must regenerate them
//! on purpose (`asqp-replay <chaos|mt|stream> --seed 7`, `mt` with
//! `--tenants 20000 --summary-only` and without its `lossless=` line).

use asqp_serve::{run_mt_sim, run_sim, run_stream, MtSimConfig, SimConfig, StreamConfig};

#[track_caller]
fn assert_matches(actual: &str, golden: &str) {
    let first_diff = actual.lines().zip(golden.lines()).position(|(a, g)| a != g);
    if let Some(i) = first_diff {
        panic!(
            "line {}:\n  actual: {}\n  golden: {}",
            i + 1,
            actual.lines().nth(i).unwrap_or(""),
            golden.lines().nth(i).unwrap_or("")
        );
    }
    assert_eq!(actual.len(), golden.len(), "one transcript is a prefix");
}

#[test]
fn chaos_seed_7() {
    let transcript = run_sim(&SimConfig::chaos(7)).render();
    assert_matches(&transcript, include_str!("golden/chaos_seed7.txt"));
}

/// Header, digest and summary: the digest folds every event with its
/// virtual time, so three lines certify the whole stream.
#[test]
fn mt_seed_7_at_20k_tenants() {
    let transcript = run_mt_sim(&MtSimConfig::standard(7, 20_000)).render();
    let summary: String = transcript
        .lines()
        .filter(|l| !l.starts_with("tenant="))
        .flat_map(|l| [l, "\n"])
        .collect();
    assert_matches(&summary, include_str!("golden/mt_seed7_20k_summary.txt"));
}

#[test]
fn stream_seed_7() {
    let transcript = run_stream(&StreamConfig::chaos(7))
        .expect("stream run")
        .render();
    assert_matches(&transcript, include_str!("golden/stream_seed7.txt"));
}
