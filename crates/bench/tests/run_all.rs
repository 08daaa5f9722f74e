//! `fig all` keeps going past a figure that returns an error and names it.
//! Figures save under the working directory, so the test moves there; this
//! file is its own test binary, so no other test sees the move.

use asqp_bench::figures::{run_all, FigResult, Figure};
use asqp_bench::BenchEnv;
use asqp_data::Scale;
use std::io::Write;

fn ok(_: &BenchEnv, out: &mut dyn Write) -> FigResult {
    writeln!(out, "ran")?;
    Ok("[]".to_string())
}

fn failing(_: &BenchEnv, _: &mut dyn Write) -> FigResult {
    Err("no such table".into())
}

static TABLE: [Figure; 2] = [
    Figure {
        id: "broken",
        title: "",
        run: failing,
    },
    Figure {
        id: "fine",
        title: "",
        run: ok,
    },
];

#[test]
fn run_all_reports_the_failing_figure() {
    let env = BenchEnv {
        scale: Scale::Tiny,
        seed: 7,
    };
    let home = std::env::current_dir().unwrap();
    let dir = std::env::temp_dir().join(format!("asqp-bench-all-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_current_dir(&dir).unwrap();
    let mut out = Vec::new();
    let failures = run_all(&TABLE, &env, &mut out);
    let saved = std::fs::read_to_string("results/fine.json");
    std::env::set_current_dir(home).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(failures.unwrap(), ["broken"]);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("\n################ broken ################\n[broken finished in "));
    assert!(text.contains("\n################ fine ################\nran\n[fine finished in "));
    assert!(text.contains("; 1/2 experiments succeeded ================\n"));
    assert_eq!(saved.unwrap(), "[]");
}
