//! `asqp-bench fig <id>|all|list` runs the paper's figures from the one
//! table in [`asqp_bench::figures`]; `asqp-bench ratios` runs the in-process
//! A/B perf pairs of [`asqp_bench::ratios`] (see [`USAGE`]).
//!
//! A figure prints its tables on stdout and saves `results/<id>.json` under
//! the working directory. Anything the parser does not understand prints
//! the usage on stderr and exits 2: a typo must not run a default and pass.

use asqp_bench::figures::{self, Figure, FIGURES};
use asqp_bench::{ratios, BenchEnv};
use std::error::Error;
use std::process::ExitCode;

const USAGE: &str = "\
usage: asqp-bench fig <id>   run one figure: stdout + results/<id>.json
       asqp-bench fig all    run every figure in table order; exit 1 if one fails
                             (an error is reported and the rest run; a panic ends the suite)
       asqp-bench fig list   print `<id>\\t<title>` per figure
       asqp-bench ratios     time the A/B perf pairs; exit 1 under a floor
env:   ASQP_SCALE=tiny|small|medium|<factor>  ASQP_SEED=<n>  ASQP_ZERO_TIMINGS=1";

enum Command {
    Fig(&'static Figure),
    All,
    List,
    Ratios,
}

/// `Ok(None)` asks for the usage.
fn parse(args: &[String]) -> Result<Option<Command>, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    if let Some(flag) = words.iter().find(|w| w.starts_with('-')) {
        return Err(format!("unknown flag `{flag}`"));
    }
    match words[..] {
        [] => Err("missing verb".into()),
        ["ratios"] => Ok(Some(Command::Ratios)),
        ["fig"] => Err("`fig` needs a figure id, `all` or `list`".into()),
        ["fig", "all"] => Ok(Some(Command::All)),
        ["fig", "list"] => Ok(Some(Command::List)),
        ["fig", id] => match figures::find(id) {
            Some(fig) => Ok(Some(Command::Fig(fig))),
            None => Err(format!("unknown figure `{id}` (see `asqp-bench fig list`)")),
        },
        ["fig" | "ratios", ..] => Err(format!("unexpected argument `{}`", words[words.len() - 1])),
        [verb, ..] => Err(format!("unknown verb `{verb}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(Some(command)) => command,
        Ok(None) => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("asqp-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = BenchEnv::from_env();
    let out = &mut std::io::stdout().lock();
    let failure: Option<Box<dyn Error>> = match command {
        Command::Fig(figure) => figures::run_one(figure, &env, out).err(),
        Command::All => match figures::run_all(&FIGURES, &env, out) {
            Ok(failures) if failures.is_empty() => None,
            Ok(failures) => Some(format!("failed: {failures:?}").into()),
            Err(e) => Some(e.into()),
        },
        Command::List => {
            for f in &FIGURES {
                println!("{}\t{}", f.id, f.title);
            }
            None
        }
        Command::Ratios => match ratios::run_pairs() {
            0 => None,
            under => Some(format!("{under} pair(s) under their floor").into()),
        },
    };
    let Some(e) = failure else {
        return ExitCode::SUCCESS;
    };
    eprintln!("asqp-bench: {e}");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Option<Command>, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse(&args)
    }

    #[test]
    fn verbs_parse() {
        assert!(matches!(parse_line("ratios"), Ok(Some(Command::Ratios))));
        assert!(matches!(parse_line("fig all"), Ok(Some(Command::All))));
        assert!(matches!(parse_line("fig list"), Ok(Some(Command::List))));
        for f in &FIGURES {
            let parsed = parse_line(&format!("fig {}", f.id));
            assert!(matches!(parsed, Ok(Some(Command::Fig(g))) if std::ptr::eq(f, g)));
        }
        assert!(matches!(parse_line("--help"), Ok(None)));
        assert!(matches!(parse_line("fig fig02_overall -h"), Ok(None)));
    }

    /// Every malformed command line is an error, never a default run.
    #[test]
    fn hostile_input_is_rejected() {
        for line in [
            "",
            "fig",
            "figs all",
            "all",
            "list",
            "fig fig02",
            "fig fig02_overall.json",
            "fig ALL",
            "fig fig02_overall fig03_ablation",
            "fig all list",
            "fig --all",
            "fig all --reduced",
            "fig fig08_memory --out x.json",
            "ratios --baseline results/bench_baseline.json",
            "ratios --tolerance 1.5",
            "ratios all",
            "bench_report",
            "fig02_overall",
        ] {
            assert!(parse_line(line).is_err(), "`{line}` must be rejected");
        }
    }
}
