//! `e2e`: the repo's end-to-end benchmark. A threaded `MtServer` over COW
//! tenants on sessions trained by the real pipeline, driven in-process by
//! seeded open- and closed-loop load, with the offline pipeline timed as
//! set-up and every answer checked. See README.md beside this package.

mod fixture;
mod ingest;
mod layers;
mod load;
mod machine;
mod metrics;
mod stats;
mod trace;
mod traced;
mod verify;
mod workload;

use metrics::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

pub struct Options {
    pub seed: u64,
    /// Length of the timed phases of one run.
    pub seconds: f64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    pub smoke: bool,
}

/// What one run of one workload produced.
pub struct Report {
    pub workload: &'static str,
    pub trace: bool,
    pub attempted: usize,
    pub failed: usize,
    /// Why the numbers must not be published (a guard tripped).
    pub invalid: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    fn names(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line the driver reads.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .names()
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.metrics[name]
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

const USAGE: &str = "usage: e2e [--workload <name>|all] [--seed N] [--seconds N] \
[--trace 0|1] [--trace-out FILE] [--repeat N] [--smoke]";

struct Cli {
    workloads: Vec<&'static Workload>,
    repeat: usize,
    options: Options,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: WORKLOADS.iter().collect(),
        repeat: 1,
        options: Options {
            seed: 7,
            seconds: 10.0,
            trace: false,
            trace_out: None,
            smoke: false,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.options.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|w| w.name == value)
                    .ok_or_else(|| format!("unknown workload '{value}'"))?;
                cli.workloads = vec![w];
            }
            "--seed" => cli.options.seed = number()?,
            "--seconds" => match number()? {
                s @ 1..=60 => cli.options.seconds = s as f64,
                _ => return Err("--seconds takes 1 to 60".into()),
            },
            "--trace" => cli.options.trace = number()? != 0,
            "--trace-out" => cli.options.trace_out = Some(PathBuf::from(value)),
            "--repeat" => cli.repeat = number()?.max(1) as usize,
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(cli)
}

/// Per metric and workload: min / median / max and quartile spread over
/// the repeats.
fn print_repeats(reports: &[Report]) {
    println!("\n== {} repeats ==", reports.len());
    let mut seen = Vec::new();
    for r in reports {
        if !seen.contains(&r.workload) {
            seen.push(r.workload);
        }
    }
    for workload in seen {
        let runs: Vec<&Report> = reports.iter().filter(|r| r.workload == workload).collect();
        for (name, unit) in runs[0].names() {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[name]).collect();
            let s = stats::sorted(values.clone());
            let spread = if values.len() >= 2 {
                format!("{:.1}%", 100.0 * stats::spread(&values))
            } else {
                "n/a".into()
            };
            println!(
                "{workload:15} {name:28} min {:<12.5} median {:<12.5} max {:<12.5} {unit:6} spread {spread}",
                s[0],
                stats::median(&values),
                s[s.len() - 1],
            );
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = if cli.options.smoke {
        "tiny"
    } else {
        "factor75"
    };
    println!("{}", machine::fingerprint(cli.options.seed, scale));

    let mut reports = Vec::new();
    for _ in 0..cli.repeat {
        for w in &cli.workloads {
            reports.push(workload::run(w, &cli.options));
        }
    }
    if cli.repeat > 1 {
        print_repeats(&reports);
    }
    // One result line per workload run; the last line of the output is the
    // last run's.
    for r in &reports[reports.len() - cli.workloads.len()..] {
        println!("{}", r.json());
    }
    if reports.iter().all(Report::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse(&args(
            "--workload explore_miss --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workloads.len(), 1);
        assert_eq!(cli.workloads[0].name, "explore_miss");
        assert_eq!(cli.options.seed, 3);
        assert!(cli.options.trace);
        assert_eq!(parse(&[]).unwrap().workloads.len(), WORKLOADS.len());
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
    }

    /// The declared names are what `BENCHMARK.json` lists, in its order.
    #[test]
    fn metric_and_workload_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names_after = |key: &str| -> Vec<String> {
            let from = text.find(&format!("\"{key}\"")).expect("section") + key.len();
            let section = &text[from..];
            let section = &section[..section.find(']').expect("list end")];
            section
                .split("\"name\":")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let declared = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(names_after("end_to_end"), declared(END_TO_END));
        assert_eq!(names_after("per_layer"), declared(PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names_after("workloads"), workloads);
    }

    /// `--smoke`: every workload, both runs, every metric present and
    /// finite, nothing wrong.
    #[test]
    fn smoke_runs_report_every_metric() {
        for trace in [false, true] {
            let options = Options {
                seed: 7,
                seconds: 1.0,
                trace,
                trace_out: None,
                smoke: true,
            };
            for w in WORKLOADS {
                let r = workload::run(w, &options);
                assert_eq!(r.failed, 0, "{}: failed operations", w.name);
                assert!(r.invalid.is_empty(), "{}: {:?}", w.name, r.invalid);
                for (name, _) in r.names() {
                    let v = r
                        .metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("{name} missing"));
                    assert!(v.is_finite(), "{}: {name} = {v}", w.name);
                }
                assert!(r.json().starts_with("{\"correct\": true"));
            }
        }
    }
}
