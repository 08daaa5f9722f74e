//! CLI for the workspace determinism & panic-safety gate.
//!
//! ```text
//! cargo run -p asqp-analyze --release -- --workspace            # human
//! cargo run -p asqp-analyze --release -- --workspace --json    \
//!     --out results/analyze_report.json                         # CI
//! ```
//!
//! Exit code 0 ⇔ zero unsuppressed findings and zero invalid/unused
//! pragmas.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    json: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            // `--workspace` is the default (and only) scan mode; accepted
            // so the canonical invocation reads explicitly.
            "--workspace" => {}
            "--json" => args.json = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a path")?;
                args.root = Some(PathBuf::from(v));
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a path")?;
                args.out = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "asqp-analyze: determinism & panic-safety static analysis\n\n\
                     USAGE: asqp-analyze [--workspace] [--root DIR] [--json] [--out FILE]\n\n\
                     Rules: nondet, iter-order, unordered-reduce, panic-path, float-libm,\n\
                     lock-order. panic-path and iter-order are interprocedural (workspace\n\
                     call graph); lock-order checks the documented state -> full_db order\n\
                     and lock-graph cycles. Suppress with `// asqp::allow(rule_id): reason`\n\
                     (unused allows error); audit opaque callees with\n\
                     `// asqp::panic-free-audited: reason`.\n\n\
                     Exit code 1 on any finding."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("asqp-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    let root = match args.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| asqp_analyze::find_workspace_root(&cwd))
    }) {
        Some(r) => r,
        None => {
            eprintln!("asqp-analyze: no workspace root found (run inside the repo or pass --root)");
            return ExitCode::from(2);
        }
    };

    let started = std::time::Instant::now();
    let report = match asqp_analyze::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("asqp-analyze: io error: {e}");
            return ExitCode::from(2);
        }
    };
    // The wall time goes to stderr only: stdout and --out are a pure
    // function of the tree.
    eprintln!(
        "asqp-analyze: {} file(s), {:.0} ms",
        report.files_scanned,
        started.elapsed().as_secs_f64() * 1000.0
    );

    let rendered = if args.json {
        report.render_json()
    } else {
        report.render_human()
    };
    if let Some(out) = &args.out {
        if let Some(parent) = out.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(out, &rendered) {
            eprintln!("asqp-analyze: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    print!("{rendered}");

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
