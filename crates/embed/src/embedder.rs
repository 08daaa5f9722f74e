//! Feature-hashing embedder for SQL queries and tuples.
//!
//! The paper embeds queries and rows with two modified sentence-BERT models;
//! both uses only need *token-overlap similarity* — clustering similar
//! queries, and measuring how close a new query is to the training workload.
//! A signed feature-hashing ("hashing trick") embedder preserves exactly that
//! signal, deterministically and with zero training. The tuple variant
//! includes column names as tokens, mirroring the paper's modification that
//! captures "both the meaning of the column as well as the value" (§4.2).

use crate::tokenize::{numeric_bucket, tokenize, with_bigrams};
use asqp_db::{Expr, Query, Row, Schema, SelectItem, Value};
use serde::{Deserialize, Serialize};

/// Deterministic 64-bit FNV-1a hash (stable across platforms and runs,
/// unlike `DefaultHasher`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Signed feature-hashing embedder into `dim`-dimensional unit vectors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedder {
    pub dim: usize,
}

impl Default for Embedder {
    fn default() -> Self {
        Embedder { dim: 128 }
    }
}

impl Embedder {
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        Embedder { dim }
    }

    /// Hash tokens into a signed frequency vector, then L2-normalise.
    pub fn embed_tokens<S: AsRef<str>>(&self, tokens: &[S]) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        for t in tokens {
            let h = fnv1a(t.as_ref().as_bytes());
            let idx = (h % self.dim as u64) as usize;
            let sign = if (h >> 63) & 1 == 0 { 1.0 } else { -1.0 };
            v[idx] += sign;
        }
        l2_normalize(&mut v);
        v
    }

    /// Embed a query: structural tokens (tables, join edges, predicate shape)
    /// plus bucketed literals, with bigrams for phrase sensitivity.
    pub fn embed_query(&self, q: &Query) -> Vec<f32> {
        let mut tokens: Vec<String> = Vec::new();
        for t in &q.from {
            tokens.push(format!("tbl:{}", t.table.to_lowercase()));
        }
        for j in &q.joins {
            // Join edges canonicalised so a=b and b=a embed identically.
            let mut pair = [
                j.left.to_string().to_lowercase(),
                j.right.to_string().to_lowercase(),
            ];
            pair.sort();
            tokens.push(format!("join:{}={}", pair[0], pair[1]));
        }
        for s in &q.select {
            if let SelectItem::Column(c) = s {
                tokens.push(format!("sel:{}", c.column.to_lowercase()));
            }
            if let SelectItem::Aggregate(a) = s {
                tokens.push(format!("agg:{}", a.func).to_lowercase());
                if let Some(c) = &a.arg {
                    tokens.push(format!("sel:{}", c.column.to_lowercase()));
                }
            }
        }
        for g in &q.group_by {
            tokens.push(format!("grp:{}", g.column.to_lowercase()));
        }
        if let Some(p) = &q.predicate {
            predicate_tokens(p, &mut tokens);
        }
        let tokens = with_bigrams(&tokens);
        self.embed_tokens(&tokens)
    }

    /// Embed a tuple: `col`, `col=value` and bucketed-numeric tokens.
    pub fn embed_tuple(&self, schema: &Schema, row: &Row) -> Vec<f32> {
        let mut tokens: Vec<String> = Vec::new();
        for (cdef, v) in schema.columns().iter().zip(row) {
            let col = cdef.name.to_lowercase();
            tokens.push(format!("col:{col}"));
            match v {
                Value::Null => tokens.push(format!("{col}=null")),
                Value::Str(s) => {
                    for t in tokenize(s) {
                        tokens.push(format!("{col}={t}"));
                        tokens.push(format!("val:{t}"));
                    }
                }
                Value::Int(i) => tokens.push(format!("{col}={}", numeric_bucket(*i as f64))),
                Value::Float(f) => tokens.push(format!("{col}={}", numeric_bucket(*f))),
                Value::Bool(b) => tokens.push(format!("{col}={b}")),
            }
        }
        self.embed_tokens(&tokens)
    }
}

/// Tokens describing a predicate's shape and (bucketed) constants.
fn predicate_tokens(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Column(c) => out.push(format!("pcol:{}", c.column.to_lowercase())),
        Expr::Slot(s) => out.push(format!("pslot:{s}")),
        Expr::Literal(v) => out.push(literal_token(v)),
        Expr::Cmp { op, lhs, rhs } => {
            out.push(format!("op:{op}"));
            predicate_tokens(lhs, out);
            predicate_tokens(rhs, out);
        }
        Expr::Arith { op, lhs, rhs } => {
            out.push(format!("op:{op}"));
            predicate_tokens(lhs, out);
            predicate_tokens(rhs, out);
        }
        Expr::And(a, b) => {
            predicate_tokens(a, out);
            predicate_tokens(b, out);
        }
        Expr::Or(a, b) => {
            out.push("op:or".to_string());
            predicate_tokens(a, out);
            predicate_tokens(b, out);
        }
        Expr::Not(x) => {
            out.push("op:not".to_string());
            predicate_tokens(x, out);
        }
        Expr::In { expr, list, .. } => {
            out.push("op:in".to_string());
            predicate_tokens(expr, out);
            for v in list {
                out.push(literal_token(v));
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            out.push("op:between".to_string());
            predicate_tokens(expr, out);
            predicate_tokens(low, out);
            predicate_tokens(high, out);
        }
        Expr::Like { expr, pattern, .. } => {
            out.push("op:like".to_string());
            predicate_tokens(expr, out);
            for t in tokenize(pattern) {
                out.push(format!("lit:{t}"));
            }
        }
        Expr::IsNull { expr, .. } => {
            out.push("op:isnull".to_string());
            predicate_tokens(expr, out);
        }
    }
}

fn literal_token(v: &Value) -> String {
    match v {
        Value::Null => "lit:null".to_string(),
        Value::Int(i) => format!("lit:{}", numeric_bucket(*i as f64)),
        Value::Float(f) => format!("lit:{}", numeric_bucket(*f)),
        Value::Bool(b) => format!("lit:{b}"),
        Value::Str(s) => {
            let toks = tokenize(s);
            if toks.is_empty() {
                "lit:empty".to_string()
            } else {
                format!("lit:{}", toks.join("_"))
            }
        }
    }
}

/// In-place L2 normalisation (no-op for the zero vector).
pub fn l2_normalize(v: &mut [f32]) {
    let n = norm(v);
    if n > 0.0 {
        v.iter_mut().for_each(|x| *x /= n);
    }
}

/// Cosine similarity of two equal-length vectors (0 for zero vectors).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine_with_norms(a, norm(a), b, norm(b))
}

/// Euclidean norm, the squares summed left to right in `f32`.
pub fn norm(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// [`cosine`] for a caller that keeps `na = norm(a)` and `nb = norm(b)`:
/// one pass instead of three, the same bits.
pub fn cosine_with_norms(a: &[f32], na: f32, b: &[f32], nb: f32) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// Squared Euclidean distance.
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asqp_db::sql::parse;
    use asqp_db::ValueType;

    #[test]
    fn deterministic_embeddings() {
        let e = Embedder::new(64);
        let a = e.embed_tokens(&["hello", "world"]);
        let b = e.embed_tokens(&["hello", "world"]);
        assert_eq!(a, b);
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn similar_queries_embed_closer_than_dissimilar() {
        let e = Embedder::new(256);
        let q1 = parse("SELECT m.title FROM movies m WHERE m.year > 1994").unwrap();
        let q2 = parse("SELECT m.title FROM movies m WHERE m.year > 1996").unwrap();
        let q3 = parse("SELECT f.carrier FROM flights f WHERE f.dep_delay > 60").unwrap();
        let (v1, v2, v3) = (e.embed_query(&q1), e.embed_query(&q2), e.embed_query(&q3));
        let close = cosine(&v1, &v2);
        let far = cosine(&v1, &v3);
        assert!(
            close > far + 0.2,
            "similar queries should be closer: close={close} far={far}"
        );
    }

    #[test]
    fn join_order_canonicalised() {
        let e = Embedder::new(256);
        let q1 = parse("SELECT * FROM a, b WHERE a.x = b.y").unwrap();
        let q2 = parse("SELECT * FROM a, b WHERE b.y = a.x").unwrap();
        let (v1, v2) = (e.embed_query(&q1), e.embed_query(&q2));
        assert!(cosine(&v1, &v2) > 0.999);
    }

    #[test]
    fn tuple_embedding_reflects_value_overlap() {
        let e = Embedder::new(256);
        let schema = asqp_db::Schema::build(&[("title", ValueType::Str), ("year", ValueType::Int)]);
        let r1 = vec![Value::Str("star wars".into()), Value::Int(1977)];
        let r2 = vec![Value::Str("star trek".into()), Value::Int(1979)];
        let r3 = vec![Value::Str("amelie".into()), Value::Int(2001)];
        let (v1, v2, v3) = (
            e.embed_tuple(&schema, &r1),
            e.embed_tuple(&schema, &r2),
            e.embed_tuple(&schema, &r3),
        );
        assert!(cosine(&v1, &v2) > cosine(&v1, &v3));
    }

    #[test]
    fn cosine_edge_cases() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn sq_dist_basic() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn fnv_stable() {
        // Pin the hash so serialized embeddings stay comparable across builds.
        assert_eq!(super::fnv1a(b"asqp"), super::fnv1a(b"asqp"));
        assert_ne!(super::fnv1a(b"asqp"), super::fnv1a(b"aspq"));
    }
}
