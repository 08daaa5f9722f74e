//! `bench_pairs` — the interleaved parent/change trajectory a performance
//! claim checks in as `BENCH_<pr>.json` (ROADMAP, "Rule for every gain").
//!
//! It only *calls* the benchmark: the command, the run length and the
//! end-to-end metric list are read from the change checkout's
//! `BENCHMARK.json`, each run is that command in one of the two checkouts,
//! and the result is the last line of its standard output.
//!
//! ```text
//! bench_pairs --parent <dir> --change <dir> --seed <n> --out <file> <workload>=<pairs>...
//! ```
//!
//! Pair `i` runs both sides on the same seed, the parent first when `i` is
//! even and the change first when it is odd. The report holds the machine
//! line of each side, every run's end-to-end values, and per metric each
//! side's quartiles, how many pairs each side won and what that means (see
//! [`verdict`]). It is rewritten after every pair, so an interrupted session
//! keeps what it measured; the verdicts are printed when the session ends,
//! and a run that was incorrect or failed an operation fails the session.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const SIDES: [&str; 2] = ["parent", "change"];

#[derive(Deserialize)]
struct Benchmark {
    command: Vec<String>,
    run_seconds: u64,
    end_to_end: Vec<MetricDecl>,
}

#[derive(Deserialize)]
struct MetricDecl {
    name: String,
    unit: String,
    /// `"lower"` or `"higher"`.
    better: String,
    /// Share of the parent's median by which the metric may get worse.
    bound: f64,
}

/// The result object the benchmark prints last.
#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

#[derive(Deserialize)]
struct MetricValue {
    value: f64,
}

#[derive(Serialize)]
struct Run {
    pair: usize,
    side: &'static str,
    ran_first: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
    /// The per-round values behind `values`, where the run had several
    /// rounds: a run's value does not say whether its rounds sat in one band.
    rounds: Rounds,
}

#[derive(Serialize)]
struct Quartiles {
    q1: f64,
    median: f64,
    q3: f64,
}

#[derive(Serialize)]
struct MetricSummary {
    unit: String,
    better: String,
    parent: Quartiles,
    change: Quartiles,
    /// Pairs in which the change's value was strictly better / worse; the
    /// rest are ties.
    change_wins: usize,
    parent_wins: usize,
    verdict: &'static str,
}

#[derive(Serialize)]
struct WorkloadReport {
    workload: String,
    seed: u64,
    pairs: usize,
    runs: Vec<Run>,
    summary: BTreeMap<String, MetricSummary>,
}

#[derive(Serialize)]
struct Report {
    /// Per side, the `machine:` line its first run printed.
    machine: BTreeMap<&'static str, String>,
    command: Vec<String>,
    run_seconds: u64,
    workloads: Vec<WorkloadReport>,
}

struct Args {
    /// Checkout directories, indexed like [`SIDES`].
    dirs: [PathBuf; 2],
    seed: u64,
    out: PathBuf,
    /// `(workload, pairs)` in the order given.
    plan: Vec<(String, usize)>,
}

const USAGE: &str = "usage: bench_pairs --parent <dir> --change <dir> --seed <n> --out <file> <workload>=<pairs>...";

fn parse_args() -> Result<Args, String> {
    let (mut parent, mut change, mut seed, mut out) = (None, None, None, None);
    let mut plan = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--parent" => parent = Some(PathBuf::from(value("--parent")?)),
            "--change" => change = Some(PathBuf::from(value("--change")?)),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse().map_err(|_| format!("invalid seed '{v}'"))?);
            }
            other => {
                let (workload, pairs) = other
                    .split_once('=')
                    .and_then(|(w, n)| Some((w.to_string(), n.parse().ok()?)))
                    .ok_or(format!("expected <workload>=<pairs>, got '{other}'"))?;
                plan.push((workload, pairs));
            }
        }
    }
    if plan.is_empty() {
        return Err("no <workload>=<pairs> given".to_string());
    }
    Ok(Args {
        dirs: [
            parent.ok_or("--parent is required")?,
            change.ok_or("--change is required")?,
        ],
        seed: seed.ok_or("--seed is required")?,
        out: out.ok_or("--out is required")?,
        plan,
    })
}

/// Per-round values by metric.
type Rounds = BTreeMap<String, Vec<f64>>;

/// [`Rounds`] from the report's `<name> <value> <unit> rounds [a b c]` lines.
fn rounds_of(stdout: &str) -> Rounds {
    let parse = |line: &str| {
        let (head, list) = line.split_once(" rounds [")?;
        let name = head.split_whitespace().next()?;
        let values: Result<Vec<f64>, _> = (list.strip_suffix(']')?.split_whitespace())
            .map(str::parse)
            .collect();
        Some((name.to_string(), values.ok()?))
    };
    stdout.lines().filter_map(parse).collect()
}

/// One benchmark run in `dir`: its result line, its per-round values and
/// its `machine:` line.
fn run_once(
    bench: &Benchmark,
    dir: &Path,
    workload: &str,
    seed: u64,
) -> Result<(ResultLine, Rounds, String), String> {
    let (program, args) = bench.command.split_first().ok_or("empty command")?;
    let output = Command::new(program)
        .args(args)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &bench.run_seconds.to_string()])
        .current_dir(dir)
        .output()
        .map_err(|e| format!("cannot run {program} in {}: {e}", dir.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!(
            "{} in {}\n{stdout}\n{stderr}",
            output.status,
            dir.display()
        ));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or("the benchmark printed nothing")?;
    let result = serde_json::from_str(last).map_err(|e| format!("{e} in result line: {last}"))?;
    let machine = stdout.lines().find(|l| l.starts_with("machine:"));
    let machine = machine.unwrap_or("machine: unknown").to_string();
    Ok((result, rounds_of(&stdout), machine))
}

/// Quartiles by linear interpolation between order statistics.
fn quartiles(values: &[f64]) -> Quartiles {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = p * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    Quartiles {
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
    }
}

/// What a metric's pairs mean, by the rule of `choosing-metrics` §8.
/// `ahead`: the change won at least nine tenths of the pairs and the medians
/// are apart, the right way, by more than the parent's own q3 − q1.
/// `worse`: the change's median is worse by more than `bound` of the
/// parent's. `unresolved`: a side's q3 − q1 is wider than that, so the pairs
/// cannot tell — unless every run of the change beat every run of the
/// parent. `within_bound` otherwise.
fn verdict(decl: &MetricDecl, parent: &[f64], change: &[f64], change_wins: usize) -> &'static str {
    let sign = if decl.better == "lower" { -1.0 } else { 1.0 };
    let (p, c) = (quartiles(parent), quartiles(change));
    let gain = sign * (c.median - p.median);
    let allowed = decl.bound * p.median.abs();
    let best_parent = parent.iter().map(|v| sign * v).fold(f64::MIN, f64::max);
    let all_ahead = change.iter().all(|v| sign * v > best_parent);
    if change_wins * 10 >= parent.len() * 9 && gain > p.q3 - p.q1 {
        "ahead"
    } else if -gain > allowed {
        "worse"
    } else if (p.q3 - p.q1).max(c.q3 - c.q1) > allowed && !all_ahead {
        "unresolved"
    } else {
        "within_bound"
    }
}

/// Per declared metric: each side's quartiles over `runs`, the pairs won and
/// the [`verdict`].
fn summarize(bench: &Benchmark, runs: &[Run]) -> BTreeMap<String, MetricSummary> {
    let mut summary = BTreeMap::new();
    for decl in &bench.end_to_end {
        let side = |side: &str| -> Vec<f64> {
            let of_side = runs.iter().filter(|r| r.side == side);
            of_side
                .filter_map(|r| r.values.get(&decl.name).copied())
                .collect()
        };
        let (parent, change) = (side(SIDES[0]), side(SIDES[1]));
        if parent.is_empty() || parent.len() != change.len() {
            continue;
        }
        // `runs` holds whole pairs in pair order, so position = pair.
        let won = |a: &[f64], b: &[f64]| {
            let better = |(x, y): (&f64, &f64)| if decl.better == "lower" { x < y } else { x > y };
            a.iter().zip(b).filter(|&p| better(p)).count()
        };
        let change_wins = won(&change, &parent);
        summary.insert(
            decl.name.clone(),
            MetricSummary {
                unit: decl.unit.clone(),
                better: decl.better.clone(),
                verdict: verdict(decl, &parent, &change, change_wins),
                change_wins,
                parent_wins: won(&parent, &change),
                parent: quartiles(&parent),
                change: quartiles(&change),
            },
        );
    }
    summary
}

fn run_pairs(args: &Args) -> Result<(), String> {
    let path = args.dirs[1].join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bench: Benchmark =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut report = Report {
        machine: BTreeMap::new(),
        command: bench.command.clone(),
        run_seconds: bench.run_seconds,
        workloads: Vec::new(),
    };
    for (workload, pairs) in &args.plan {
        report.workloads.push(WorkloadReport {
            workload: workload.clone(),
            seed: args.seed,
            pairs: *pairs,
            runs: Vec::new(),
            summary: BTreeMap::new(),
        });
        for pair in 0..*pairs {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            let mut both: Vec<Run> = Vec::new();
            for (nth, side) in order.into_iter().enumerate() {
                eprintln!("{workload} pair {pair}: {}", SIDES[side]);
                let (line, rounds, machine) =
                    run_once(&bench, &args.dirs[side], workload, args.seed)?;
                report.machine.entry(SIDES[side]).or_insert(machine);
                both.push(Run {
                    pair,
                    side: SIDES[side],
                    ran_first: nth == 0,
                    correct: line.correct,
                    attempted: line.attempted,
                    failed: line.failed,
                    values: line
                        .metrics
                        .into_iter()
                        .map(|(k, m)| (k, m.value))
                        .collect(),
                    rounds,
                });
            }
            let current = report.workloads.last_mut().expect("pushed above");
            current.runs.extend(both);
            current.summary = summarize(&bench, &current.runs);
            let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
            std::fs::write(&args.out, json + "\n")
                .map_err(|e| format!("{}: {e}", args.out.display()))?;
        }
    }
    let mut bad_runs = 0;
    for w in &report.workloads {
        for (name, m) in &w.summary {
            let (workload, parent, change) = (&w.workload, m.parent.median, m.change.median);
            let (unit, won, pairs, verdict) = (&m.unit, m.change_wins, w.pairs, m.verdict);
            eprintln!("{workload:<15} {name:<14} parent {parent:>12.5} change {change:>12.5} {unit:<5} won {won:>2} of {pairs:<2} {verdict}");
        }
        let bad = |r: &&Run| !r.correct || r.failed > 0;
        bad_runs += w.runs.iter().filter(bad).count();
    }
    if bad_runs > 0 {
        return Err(format!(
            "{bad_runs} run(s) incorrect or with failed operations"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args()
        .map_err(|e| format!("{e}\n{USAGE}"))
        .and_then(|a| run_pairs(&a));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_pairs: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_read_from_the_report_lines_that_have_them() {
        let stdout = "machine: 2 vCPU\n  setup_s                      3.10000        s\n  \
                      closed_qps                   6478.12000     1/s    rounds [6400.5 9100.25 6478.12]\n\
                      {\"correct\": true}\n";
        let rounds = rounds_of(stdout);
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds["closed_qps"], [6400.5, 9100.25, 6478.12]);
    }

    #[test]
    fn the_four_verdicts() {
        let qps = MetricDecl {
            name: "closed_qps".into(),
            unit: "1/s".into(),
            better: "higher".into(),
            bound: 0.25,
        };
        let parent = [
            100.0, 104.0, 96.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0,
        ];
        let scaled = |by: f64| parent.map(|v| v * by);
        assert_eq!(verdict(&qps, &parent, &scaled(1.5), 10), "ahead");
        // A win in every pair by less than the parent's own spread is not one.
        assert_eq!(verdict(&qps, &parent, &scaled(1.01), 10), "within_bound");
        assert_eq!(verdict(&qps, &parent, &scaled(0.7), 0), "worse");
        let mut wide = parent;
        (wide.iter_mut().step_by(2)).for_each(|v| *v *= 0.5);
        (wide.iter_mut().skip(1).step_by(2)).for_each(|v| *v *= 1.5);
        assert_eq!(verdict(&qps, &parent, &wide, 5), "unresolved");
        let lower = MetricDecl {
            better: "lower".into(),
            ..qps
        };
        assert_eq!(verdict(&lower, &parent, &scaled(0.5), 10), "ahead");
        assert_eq!(verdict(&lower, &parent, &scaled(1.5), 0), "worse");
    }
}
