//! Interactive SQL shell over the engine — load your own CSVs, explore them,
//! and build an ASQP-RL approximation set from your session's queries.
//!
//! ```sh
//! cargo run --release --example sql_repl                 # demo IMDB data
//! cargo run --release --example sql_repl -- people.csv   # your CSVs
//! ```
//!
//! Commands: SELECT / CREATE TABLE / INSERT / DROP TABLE statements,
//! `\tables`, `\approx <k>` (train ASQP-RL on the queries issued so far and
//! switch to the approximation set), `\full` (switch back), `\quit`.

use asqp::db::{Statement, StatementResult};
use asqp::prelude::*;
use std::io::{BufRead, Write};

fn main() {
    let mut db = Database::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        println!("no CSVs given; loading the demo IMDB-shaped dataset (Scale::Small)");
        db = asqp::data::imdb::generate(Scale::Small, 7);
    } else {
        for path in &args {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("table")
                .to_string();
            let table = asqp::db::csv::load_csv(&name, &text, None)
                .unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
            println!("loaded {} ({} rows)", name, table.row_count());
            db.add_table(table).expect("unique table names");
        }
    }
    println!(
        "{} tables, {} tuples. Type SQL, \\tables, \\approx <k>, \\full or \\quit.\n",
        db.table_names().count(),
        db.total_rows()
    );

    let mut history: Vec<Query> = Vec::new();
    let mut approx: Option<Database> = None;
    let stdin = std::io::stdin();
    loop {
        print!("asqp> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            "\\quit" | "\\q" => break,
            "\\tables" => {
                for t in db.tables() {
                    println!("  {} {} ({} rows)", t.name(), t.schema(), t.row_count());
                }
                continue;
            }
            "\\full" => {
                approx = None;
                println!("switched to the full database");
                continue;
            }
            _ => {}
        }
        if let Some(rest) = line.strip_prefix("\\approx") {
            let k: usize = rest.trim().parse().unwrap_or(db.total_rows() / 100);
            if history.is_empty() {
                println!("issue a few queries first — they become the training workload");
                continue;
            }
            println!(
                "training ASQP-RL on your {} session queries (k = {k})...",
                history.len()
            );
            let cfg = AsqpConfig::light(k, 50).with_seed(7);
            match train(&db, &Workload::uniform(history.clone()), &cfg) {
                Ok(model) => match model.materialize(&db, None) {
                    Ok(sub) => {
                        println!("approximation set ready: {} tuples", sub.total_rows());
                        approx = Some(sub);
                    }
                    Err(e) => println!("error: {e}"),
                },
                Err(e) => println!("error: {e}"),
            }
            continue;
        }

        if let Some(rest) = line.strip_prefix("\\explain ") {
            match asqp::db::sql::parse(rest) {
                Ok(q) => match asqp::db::explain(&db, &q) {
                    Ok(plan) => print!("{plan}"),
                    Err(e) => println!("error: {e}"),
                },
                Err(e) => println!("parse error: {e}"),
            }
            continue;
        }

        // A SELECT runs on the current target; CREATE / INSERT / DROP
        // mutate the full database directly.
        let query = match asqp::db::parse_statement(line) {
            Ok(Statement::Select(q)) => q,
            Ok(_) => {
                match asqp::db::execute_statement(&mut db, line) {
                    Ok(StatementResult::Done { affected }) => {
                        println!("ok ({affected} rows affected)");
                    }
                    Ok(_) => unreachable!("DDL/DML never returns rows"),
                    Err(e) => println!("error: {e}"),
                }
                continue;
            }
            Err(e) => {
                println!("parse error: {e}");
                continue;
            }
        };
        let target = approx.as_ref().unwrap_or(&db);
        let started = std::time::Instant::now();
        match target.execute(&query) {
            Ok(rs) => {
                let shown = rs.rows.len().min(20);
                println!("{}", rs.columns.join(" | "));
                for row in rs.rows.iter().take(shown) {
                    let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    println!("{}", cells.join(" | "));
                }
                println!(
                    "({} rows{} in {:.1?}{})",
                    rs.rows.len(),
                    if rs.rows.len() > shown {
                        ", 20 shown"
                    } else {
                        ""
                    },
                    started.elapsed(),
                    if approx.is_some() {
                        ", approximation set"
                    } else {
                        ""
                    }
                );
                history.push(query);
            }
            Err(e) => println!("error: {e}"),
        }
    }
    println!("bye");
}
