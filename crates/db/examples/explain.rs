//! Prints the plan for a star join, then runs it and prints it again with
//! the actual cardinalities:
//!
//! ```text
//! cargo run -p asqp-db --example explain
//! ```
//!
//! The transcript in README.md ("Cost-based optimizer") is this output.

use asqp_db::testkit::star_db;
use asqp_db::{explain, explain_analyze};

fn main() {
    let db = star_db();
    let q = asqp_db::sql::parse(
        "SELECT e.id FROM events AS e, users AS u \
         WHERE e.user_id = u.id AND u.age < 25 AND e.qty < 10 LIMIT 20",
    )
    .unwrap();

    println!("{}", explain(&db, &q).unwrap());
    println!("{}", explain_analyze(&db, &q).unwrap());
}
