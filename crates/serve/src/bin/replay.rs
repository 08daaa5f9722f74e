//! `asqp-replay <chaos|mt|stream> [flags]`: replay one deterministic
//! serving scenario for a seed and print its canonical transcript (see
//! [`USAGE`]).
//!
//! Two invocations with the same arguments print byte-identical output —
//! the CI `replay` job runs each scenario twice per seed and compares.
//! `mt` ends with a `lossless=` line (`--summary-only` drops the
//! per-tenant lines; digest and summary still certify the full event
//! stream), `stream` with `lost_writes=<n>`. Anything the parser does not
//! understand prints the usage on stderr and exits 2: a typo must not run
//! the default seed and pass.

use asqp_serve::{run_mt_sim, run_sim, run_stream, MtSimConfig, SimConfig, StreamConfig};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "\
usage: asqp-replay chaos  [--seed N] [--requests N] [--workers N] [--queue-depth N]
       asqp-replay mt     [--seed N] [--tenants N] [--shards N] [--workers-per-shard N]
                          [--queue-depth N] [--summary-only]
       asqp-replay stream [--seed N] [--ops N]";

/// Scenario → the flags it accepts; all but `--summary-only` take a value.
const SCENARIOS: [(&str, &[&str]); 3] = [
    (
        "chaos",
        &["--seed", "--requests", "--workers", "--queue-depth"],
    ),
    (
        "mt",
        &[
            "--seed",
            "--tenants",
            "--shards",
            "--workers-per-shard",
            "--queue-depth",
            "--summary-only",
        ],
    ),
    ("stream", &["--seed", "--ops"]),
];

type Flags = BTreeMap<&'static str, u64>;

/// `Ok(None)` asks for the usage.
fn parse(args: &[String]) -> Result<Option<(&'static str, Flags)>, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let (name, rest) = args.split_first().ok_or("missing scenario")?;
    let &(scenario, accepted) = SCENARIOS
        .iter()
        .find(|(s, _)| s == name)
        .ok_or_else(|| format!("unknown scenario `{name}`"))?;
    let mut flags = Flags::new();
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        let &flag = accepted
            .iter()
            .find(|f| *f == arg)
            .ok_or_else(|| format!("unknown flag `{arg}` for `{scenario}`"))?;
        let value = match flag {
            "--summary-only" => 1,
            _ => {
                let text = rest.next().ok_or(format!("`{flag}` needs a value"))?;
                text.parse()
                    .map_err(|_| format!("`{flag} {text}`: not an unsigned integer"))?
            }
        };
        flags.insert(flag, value);
    }
    Ok(Some((scenario, flags)))
}

/// Override a pool dimension, keeping it positive.
fn set(flags: &Flags, flag: &str, field: &mut usize) {
    if let Some(&n) = flags.get(flag) {
        *field = n.max(1) as usize;
    }
}

fn chaos(flags: &Flags) {
    let mut cfg = SimConfig::chaos(*flags.get("--seed").unwrap_or(&0xA5_2024));
    cfg.requests = *flags.get("--requests").unwrap_or(&cfg.requests);
    set(flags, "--workers", &mut cfg.workers);
    set(flags, "--queue-depth", &mut cfg.queue_depth);
    print!("{}", run_sim(&cfg).render());
}

fn mt(flags: &Flags) {
    let seed = *flags.get("--seed").unwrap_or(&0xA5_2024);
    let mut cfg = MtSimConfig::standard(seed, *flags.get("--tenants").unwrap_or(&100_000));
    set(flags, "--shards", &mut cfg.shards);
    set(flags, "--workers-per-shard", &mut cfg.workers_per_shard);
    set(flags, "--queue-depth", &mut cfg.queue_depth);
    let report = run_mt_sim(&cfg);
    let full = report.render();
    if flags.contains_key("--summary-only") {
        for line in full.lines().filter(|l| !l.starts_with("tenant=")) {
            println!("{line}");
        }
    } else {
        print!("{full}");
    }
    println!("lossless={}", u8::from(report.lossless()));
}

fn stream(flags: &Flags) -> ExitCode {
    let mut cfg = StreamConfig::chaos(*flags.get("--seed").unwrap_or(&0xFEED_2024));
    cfg.ops = *flags.get("--ops").unwrap_or(&cfg.ops);
    match run_stream(&cfg) {
        Ok(report) => print!("{}", report.render()),
        Err(e) => {
            eprintln!("asqp-replay stream failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(None) => eprintln!("{USAGE}"),
        Ok(Some(("chaos", flags))) => chaos(&flags),
        Ok(Some(("mt", flags))) => mt(&flags),
        Ok(Some((_, flags))) => return stream(&flags),
        Err(e) => {
            eprintln!("asqp-replay: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Option<(&'static str, Flags)>, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse(&args)
    }

    #[test]
    fn flags_parse_per_scenario() {
        let run = |line: &str, flags: &[(&'static str, u64)]| {
            let expected = (line.split(' ').next(), flags.iter().copied().collect());
            let parsed = parse_line(line).expect(line).expect(line);
            assert_eq!((Some(parsed.0), parsed.1), expected, "{line}");
        };
        run("stream", &[]);
        run("stream --ops 48", &[("--ops", 48)]);
        run(
            "chaos --seed 7 --queue-depth 2",
            &[("--seed", 7), ("--queue-depth", 2)],
        );
        run(
            "mt --tenants 20000 --summary-only --seed 42",
            &[("--tenants", 20000), ("--summary-only", 1), ("--seed", 42)],
        );
        run("chaos --seed 1 --seed 2", &[("--seed", 2)]);
        assert_eq!(parse_line("--help"), Ok(None));
        assert_eq!(parse_line("mt --seed 7 -h"), Ok(None));
    }

    /// Every malformed command line is an error, never a default run.
    #[test]
    fn hostile_input_is_rejected() {
        for line in [
            "",
            "chaos_run",
            "--seed 7",
            "chaos --seed abc",
            "chaos --seed -1",
            "chaos --seed",
            "chaos --sed 7",
            "chaos 7",
            "chaos --tenants 5",
            "chaos --summary-only",
            "stream --workers 2",
            "mt --ops 3",
            "mt --summary-only 1",
            "mt --seed 99999999999999999999",
        ] {
            assert!(parse_line(line).is_err(), "`{line}` must be rejected");
        }
    }
}
