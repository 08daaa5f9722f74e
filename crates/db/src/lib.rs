//! # asqp-db — relational substrate for ASQP-RL
//!
//! A small but complete in-memory relational engine:
//!
//! * columnar storage with dictionary-encoded strings ([`Table`], [`Column`]);
//!   a text [`Value`] shares its dictionary entry (`Arc<str>`), so reading a
//!   cell, cutting a subset and appending a batch copy no string
//! * a SQL subset (SPJ + aggregates) with a text parser ([`sql::parse`]) and
//!   canonical printer ([`Query::to_sql`])
//! * one path from query to rows — bind → plan → execute: [`plan::bind`]
//!   resolves names and classifies conjuncts (predicate and limit
//!   pushdown), [`plan_query`] attaches the cost-based join order (costed
//!   from the executing database's own statistics, for every query), and
//!   [`exec::execute`] runs exactly that [`Plan`] with vectorized scans and
//!   hash joins. EXPLAIN ([`explain()`], [`explain_analyze`]) renders the
//!   same `Plan` value
//! * a result ([`ResultSet`]) whose rows ([`Rows`]) are gathered column by
//!   column: text stays dictionary codes, with no reference count per cell
//! * per-row **lineage** ([`Database::execute_with_lineage`]) mapping
//!   result rows back to base rows — the hook ASQP-RL's pre-processing uses
//!   to build its action space
//! * table/column statistics ([`TableStats`]) feeding workload synthesis and
//!   sampling baselines
//! * sub-database materialisation ([`Database::subset`]) used to evaluate
//!   approximation sets
//!
//! The engine favours clarity and determinism over raw speed, but joins are
//! hash-based and intermediates are row-id tuples, so the scale used in the
//! experiments (10⁵–10⁶ tuples) executes comfortably.

pub mod catalog;
pub mod column;
pub mod csv;
pub mod error;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod optimizer;
pub mod plan;
pub mod query;
pub mod schema;
pub mod sql;
pub mod sql_stmt;
pub mod stats;
pub mod table;
#[doc(hidden)]
pub mod testkit;
pub mod value;
pub mod workload;
pub mod zonemap;

pub use catalog::Database;
pub use column::{Column, ColumnData};
pub use error::{DbError, DbResult, ErrorClass};
pub use exec::{ExecTrace, Lineage, QueryOutput, ResultSet, Rows};
pub use explain::{explain, explain_analyze};
pub use expr::{ArithOp, CmpOp, ColRef, Expr};
pub use optimizer::plan_query;
pub use plan::Plan;
pub use query::{AggExpr, AggFunc, JoinCond, OrderKey, Query, QueryBuilder, SelectItem, TableRef};
pub use schema::{ColumnDef, Schema};
pub use sql_stmt::{execute_statement, parse_statement, Statement, StatementResult};
pub use stats::{ColumnStats, StatsAccum, TableStats};
pub use table::Table;
pub use value::{Row, Value, ValueType};
pub use workload::Workload;
