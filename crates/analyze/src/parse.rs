//! Stage A of the interprocedural engine: a lightweight item/expression
//! layer on top of [`crate::engine`]'s token model.
//!
//! This is deliberately **not** a Rust parser. It recognises exactly the
//! constructs the interprocedural rules need — `impl` blocks (to give
//! methods an owner), `fn` headers (receiver, guard-returning signature),
//! call expressions, `.lock()`/`.read()`/`.write()` acquisitions on named
//! fields, and `let`-bound guard lifetimes — and summarises each file into
//! a [`FileSummary`] of plain facts. Summaries are pure functions of the
//! file's bytes: all cross-file reasoning (call resolution, fixpoints,
//! lock graphs) happens later in `callgraph` and never needs to re-read
//! source.
//!
//! Known blind spots (documented in DESIGN.md §14): trait-object and
//! closure calls are invisible to the call graph (the
//! `// asqp::panic-free-audited:` pragma exists for exactly that), and
//! lock receivers are matched by field *name*, qualified by the `impl`
//! owner where one exists.

use crate::diag::Finding;
use crate::engine::FileModel;
use crate::lexer::TokenKind;

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `self.name(…)` — resolved against the enclosing impl owner first.
    SelfDot,
    /// `recv.name(…)` — resolved by name among methods with a receiver.
    Method,
    /// `name(…)` — resolved by name among free functions.
    Free,
    /// `Qual::name(…)` — resolved against impl owners and module names.
    Qualified,
}

/// One call expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFact {
    pub name: String,
    /// Last path segment before `::` for [`CallKind::Qualified`] calls
    /// (`Self` is rewritten to the impl owner); empty otherwise.
    pub qual: String,
    pub kind: CallKind,
    pub line: usize,
    pub col: usize,
    /// Named lock fields held (via live `let`-bound guards) at this call.
    pub held_fields: Vec<String>,
    /// Names of live `let`-bound method calls (potential guard-returning
    /// accessors, e.g. `let state = self.state();`) at this call.
    pub held_calls: Vec<String>,
    /// Set by `taint`: the call's result flows into this fn's return value.
    pub to_return: bool,
    /// Set by `taint`: the call's result is used unsanitised in an
    /// order-sensitive way (finding if the callee returns tainted data).
    pub taints_sink: bool,
}

/// One direct `.lock()` / `.read()` / `.write()` acquisition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcqFact {
    /// Receiver field name (`self.state.read()` → `state`).
    pub field: String,
    /// `lock`, `read` or `write`.
    pub method: String,
    pub line: usize,
    pub col: usize,
    /// Lock fields already held when this acquisition runs.
    pub held_fields: Vec<String>,
    /// Live `let`-bound method-call guards at this acquisition.
    pub held_calls: Vec<String>,
    /// True when the guard is `let`-bound through a guard-preserving
    /// adapter chain and therefore *held* past the statement.
    pub held: bool,
}

/// One potential panic site (unwrap/expect/panic-family macro/indexing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicFact {
    pub line: usize,
    pub col: usize,
    /// Human description, e.g. "`.unwrap()`" or "indexing".
    pub what: String,
}

/// Everything Stage B needs to know about one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnFact {
    pub name: String,
    /// Enclosing `impl` type name, or empty for free functions.
    pub owner: String,
    /// Module path of the fn item.
    pub module: Vec<String>,
    pub line: usize,
    pub col: usize,
    pub has_self: bool,
    /// Return type mentions a guard type (`…Guard…`): call sites binding
    /// the result hold the callee's lock until scope end.
    pub returns_guard: bool,
    pub is_test: bool,
    /// Carries a `// asqp::panic-free-audited:` pragma.
    pub audited: bool,
    pub audit_line: usize,
    pub audit_col: usize,
    pub panics: Vec<PanicFact>,
    pub calls: Vec<CallFact>,
    pub acqs: Vec<AcqFact>,
    /// Set by `taint`: the fn returns values whose order derives from
    /// `HashMap`/`HashSet` iteration.
    pub returns_tainted: bool,
}

/// An `asqp::allow` pragma, as a plain fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowFact {
    pub rule: String,
    pub line: usize,
    pub col: usize,
    pub target_line: usize,
}

/// The per-file summary: local findings (token-level rules,
/// taint, bad pragmas) plus the function facts Stage B consumes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FileSummary {
    pub rel_path: String,
    pub local_findings: Vec<Finding>,
    pub allows: Vec<AllowFact>,
    pub fns: Vec<FnFact>,
}

/// Methods that preserve the guard when chained onto a lock acquisition
/// (`.lock().unwrap_or_else(|p| p.into_inner())` still holds the lock).
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "map_err"];

const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "fn", "let",
    "mut", "ref", "move", "in", "as", "use", "pub", "mod", "impl", "trait", "struct", "enum",
    "type", "where", "unsafe", "async", "await", "dyn", "self", "Self", "super", "crate", "true",
    "false", "const", "static", "extern", "box",
];

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Summarise one file model into Stage-B facts. `local_findings` is left
/// for the caller to fill (token rules + taint run separately).
pub fn summarize(model: &FileModel<'_>) -> FileSummary {
    let mut sum = FileSummary {
        rel_path: model.rel_path.clone(),
        ..FileSummary::default()
    };
    for a in &model.allows {
        sum.allows.push(AllowFact {
            rule: a.rule.clone(),
            line: a.line,
            col: a.col,
            target_line: a.target_line,
        });
    }

    let impls = impl_spans(model);

    for (fid, f) in model.fns.iter().enumerate() {
        let fid = fid as u32;
        // Indices (into `sig`) of this fn's body tokens, innermost-fn only:
        // nested fn bodies carry their own fn_id and are excluded here.
        let body: Vec<usize> = (0..model.sig.len())
            .filter(|&i| {
                model.ctx[i].fn_id == Some(fid) && model.tokens[model.sig[i]].start >= f.body_start
            })
            .collect();
        let owner = impls
            .iter()
            .rev()
            .find(|im| im.start <= f.header_start && f.header_start < im.end)
            .map(|im| im.ty.clone())
            .unwrap_or_default();
        let (has_self, returns_guard) = header_facts(model, f.header_start, f.body_start);
        let (line, col) = crate::lexer::line_col(model.src, f.header_start);
        let is_test = body.first().map(|&i| model.ctx[i].in_test).unwrap_or(false);
        let audit = model
            .audits
            .iter()
            .filter(|a| a.end <= f.header_start)
            .max_by_key(|a| a.end)
            // The audit must attach to the *next* fn item: no other fn
            // header may start between the pragma and this fn.
            .filter(|a| {
                !model
                    .fns
                    .iter()
                    .any(|g| a.end <= g.header_start && g.header_start < f.header_start)
            });
        let module = body
            .first()
            .map(|&i| model.module_of(i).to_vec())
            .unwrap_or_else(|| model.modules[0].clone());

        let mut fact = FnFact {
            name: f.name.clone(),
            owner,
            module,
            line,
            col,
            has_self,
            returns_guard,
            is_test,
            audited: audit.is_some(),
            audit_line: audit.map(|a| a.line).unwrap_or(0),
            audit_col: audit.map(|a| a.col).unwrap_or(0),
            panics: Vec::new(),
            calls: Vec::new(),
            acqs: Vec::new(),
            returns_tainted: false,
        };
        walk_body(model, &body, &mut fact);
        sum.fns.push(fact);
    }
    sum
}

struct ImplSpan {
    ty: String,
    start: usize,
    end: usize,
}

/// Find `impl [Trait for] Type { … }` spans and their owning type name.
fn impl_spans(model: &FileModel<'_>) -> Vec<ImplSpan> {
    let mut out = Vec::new();
    let n = model.sig.len();
    let mut i = 0;
    while i < n {
        if model.sig_text(i) == "impl" {
            // Scan to the `{`, collecting idents; the owner is the ident
            // after `for` if present, else the first non-generic ident.
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut first: Option<String> = None;
            let mut after_for: Option<String> = None;
            let mut saw_for = false;
            while j < n {
                let t = model.sig_text(j);
                match t {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "{" if depth <= 0 => break,
                    ";" => break,
                    "for" if depth <= 0 => saw_for = true,
                    _ => {
                        if model.sig_kind(j) == TokenKind::Ident
                            && depth <= 0
                            && !KEYWORDS.contains(&t)
                        {
                            if saw_for {
                                // Last path segment wins (`impl T for mod::Type`).
                                after_for = Some(t.to_string());
                            } else if first.is_none() {
                                first = Some(t.to_string());
                            } else {
                                // later segments of a path: keep the last one
                                if j >= 2
                                    && model.sig_text(j - 1) == ":"
                                    && model.sig_text(j - 2) == ":"
                                {
                                    first = Some(t.to_string());
                                }
                            }
                        }
                    }
                }
                j += 1;
            }
            if j < n && model.sig_text(j) == "{" {
                let start = model.tokens[model.sig[j]].start;
                // Find the matching close brace.
                let mut bd = 0i32;
                let mut k = j;
                let mut end = model.src.len();
                while k < n {
                    match model.sig_text(k) {
                        "{" => bd += 1,
                        "}" => {
                            bd -= 1;
                            if bd == 0 {
                                end = model.tokens[model.sig[k]].end;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                if let Some(ty) = after_for.or(first) {
                    out.push(ImplSpan { ty, start, end });
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Scan a fn header (`fn` keyword → body `{`): does it take `self`, and
/// does the return type mention a guard type?
fn header_facts(model: &FileModel<'_>, header_start: usize, body_start: usize) -> (bool, bool) {
    let mut has_self = false;
    let mut returns_guard = false;
    let mut depth = 0i32;
    let mut seen_paren = false;
    let mut in_return = false;
    for i in 0..model.sig.len() {
        let start = model.tokens[model.sig[i]].start;
        if start < header_start {
            continue;
        }
        if start >= body_start {
            break;
        }
        let t = model.sig_text(i);
        match t {
            "(" => {
                depth += 1;
                seen_paren = true;
            }
            ")" => depth -= 1,
            "self" if depth == 1 && seen_paren && !has_self => {
                // Only the receiver position counts: `self` before the
                // first `,` at paren depth 1.
                has_self = true;
            }
            "-" if depth == 0 && seen_paren => {
                // `->` lexes as `-` `>`.
                in_return = true;
            }
            _ => {
                if in_return && model.sig_kind(i) == TokenKind::Ident && t.contains("Guard") {
                    returns_guard = true;
                }
            }
        }
    }
    (has_self, returns_guard)
}

/// A live `let`-bound guard: either a direct lock acquisition or a
/// method call whose result might be a guard.
struct LiveGuard {
    var: String,
    /// Lock field for direct acquisitions, empty for call guards.
    field: String,
    /// Callee name for call guards, empty for direct acquisitions.
    call: String,
    depth: i32,
}

/// Walk one fn body: record calls, lock acquisitions (with held sets),
/// and panic sites.
fn walk_body(model: &FileModel<'_>, body: &[usize], fact: &mut FnFact) {
    let text = |k: usize| model.sig_text(body[k]);
    let kind = |k: usize| model.sig_kind(body[k]);
    let pos = |k: usize| model.sig_pos(body[k]);
    let n = body.len();
    let mut depth = 0i32;
    let mut live: Vec<LiveGuard> = Vec::new();

    let held_fields = |live: &[LiveGuard]| -> Vec<String> {
        live.iter()
            .filter(|g| !g.field.is_empty())
            .map(|g| g.field.clone())
            .collect()
    };
    let held_calls = |live: &[LiveGuard]| -> Vec<String> {
        live.iter()
            .filter(|g| !g.call.is_empty())
            .map(|g| g.call.clone())
            .collect()
    };

    for k in 0..n {
        let t = text(k);
        match t {
            "{" => {
                depth += 1;
                continue;
            }
            "}" => {
                depth -= 1;
                live.retain(|g| g.depth <= depth);
                continue;
            }
            _ => {}
        }

        // `drop(NAME)` releases a live guard early.
        if t == "drop" && k + 2 < n && text(k + 1) == "(" && kind(k + 2) == TokenKind::Ident {
            let name = text(k + 2);
            live.retain(|g| g.var != name);
        }

        // ---- direct lock acquisition: `FIELD . {lock,read,write} ( )` ---
        if (t == "lock" || t == "read" || t == "write")
            && k >= 2
            && text(k - 1) == "."
            && matches!(kind(k - 2), TokenKind::Ident | TokenKind::RawIdent)
            && k + 2 < n
            && text(k + 1) == "("
            && text(k + 2) == ")"
        {
            let field = text(k - 2).to_string();
            let (line, col) = pos(k);
            let held = is_held_acquisition(model, body, k);
            fact.acqs.push(AcqFact {
                field: field.clone(),
                method: t.to_string(),
                line,
                col,
                held_fields: held_fields(&live),
                held_calls: held_calls(&live),
                held: held.is_some(),
            });
            if let Some(var) = held {
                live.push(LiveGuard {
                    var,
                    field,
                    call: String::new(),
                    depth,
                });
            }
            continue;
        }

        // ---- call expressions ------------------------------------------
        if matches!(kind(k), TokenKind::Ident | TokenKind::RawIdent)
            && !KEYWORDS.contains(&t)
            && k + 1 < n
        {
            // Allow a turbofish between name and `(`.
            let mut open = k + 1;
            if open + 1 < n && text(open) == ":" && text(open + 1) == ":" {
                if open + 2 < n && text(open + 2) == "<" {
                    let mut d = 0i32;
                    let mut m = open + 2;
                    while m < n {
                        match text(m) {
                            "<" => d += 1,
                            ">" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    open = m + 1;
                } else {
                    open = n; // path continues: this ident is a qualifier
                }
            }
            let is_call = open < n && text(open) == "(";
            let is_macro = k + 1 < n && text(k + 1) == "!";
            let prev = if k > 0 { text(k - 1) } else { "" };
            let is_def = prev == "fn";
            if is_call && !is_macro && !is_def {
                let (ckind, qual) = classify_call(model, body, k, &fact.owner);
                // `drop` and lock methods are handled above; skip them as
                // calls (they never resolve to workspace fns anyway, but
                // keeping them out makes summaries smaller).
                let skip =
                    t == "drop" || ((t == "lock" || t == "read" || t == "write") && prev == ".");
                if !skip {
                    let (line, col) = pos(k);
                    fact.calls.push(CallFact {
                        name: t.to_string(),
                        qual,
                        kind: ckind,
                        line,
                        col,
                        held_fields: held_fields(&live),
                        held_calls: held_calls(&live),
                        to_return: false,
                        taints_sink: false,
                    });
                    // `let NAME = [self.]call(…)<adapters>;` keeps a
                    // potential guard live until scope end.
                    if matches!(ckind, CallKind::SelfDot | CallKind::Method) {
                        if let Some(var) = let_bound_var(model, body, k) {
                            live.push(LiveGuard {
                                var,
                                field: String::new(),
                                call: t.to_string(),
                                depth,
                            });
                        }
                    }
                }
            }
        }

        // ---- panic sites -----------------------------------------------
        if (t == "unwrap" || t == "expect")
            && k >= 1
            && text(k - 1) == "."
            && k + 1 < n
            && text(k + 1) == "("
        {
            let (line, col) = pos(k);
            fact.panics.push(PanicFact {
                line,
                col,
                what: format!("`.{t}()`"),
            });
        }
        if kind(k) == TokenKind::Ident
            && PANIC_MACROS.contains(&t)
            && k + 1 < n
            && text(k + 1) == "!"
            // `debug_assert!` compiles out in release; the plain asserts
            // are deliberate invariant checks that *should* abort.
            && (t == "panic" || t == "unreachable" || t == "todo" || t == "unimplemented")
        {
            let (line, col) = pos(k);
            fact.panics.push(PanicFact {
                line,
                col,
                what: format!("`{t}!`"),
            });
        }
        if t == "["
            && k > 0
            && (matches!(kind(k - 1), TokenKind::Ident | TokenKind::RawIdent)
                || text(k - 1) == ")"
                || text(k - 1) == "]")
        {
            let (line, col) = pos(k);
            fact.panics.push(PanicFact {
                line,
                col,
                what: "indexing".to_string(),
            });
        }
    }
}

/// Classify the call at body index `k` and extract its qualifier.
fn classify_call(
    model: &FileModel<'_>,
    body: &[usize],
    k: usize,
    owner: &str,
) -> (CallKind, String) {
    let text = |k: usize| model.sig_text(body[k]);
    if k >= 1 && text(k - 1) == "." {
        if k >= 2 && text(k - 2) == "self" {
            return (CallKind::SelfDot, String::new());
        }
        return (CallKind::Method, String::new());
    }
    if k >= 2 && text(k - 1) == ":" && text(k - 2) == ":" && k >= 3 {
        let q = text(k - 3);
        let q = if q == "Self" { owner } else { q };
        return (CallKind::Qualified, q.to_string());
    }
    (CallKind::Free, String::new())
}

/// If the statement containing body index `k` (a call or lock-method
/// token) is `let [mut] NAME = <receiver chain> <this token> …` with only
/// guard-preserving adapters between the closing `)` and the `;`, return
/// `NAME`. This is the *held* test: anything else (a `.clone()`, a field
/// access, no binding) means the temporary guard dies at the statement.
fn is_held_acquisition(model: &FileModel<'_>, body: &[usize], k: usize) -> Option<String> {
    let var = let_bound_var(model, body, k)?;
    if adapters_only_to_semicolon(model, body, k) {
        Some(var)
    } else {
        None
    }
}

/// Walk backwards from the receiver of the chain containing index `k` to
/// see if the statement starts `let [mut] NAME =`; returns `NAME`.
fn let_bound_var(model: &FileModel<'_>, body: &[usize], k: usize) -> Option<String> {
    let text = |k: usize| model.sig_text(body[k]);
    let kind = |k: usize| model.sig_kind(body[k]);
    // Step back over the receiver chain: `self . field . read` etc.
    let mut i = k;
    while i >= 2
        && text(i - 1) == "."
        && matches!(kind(i - 2), TokenKind::Ident | TokenKind::RawIdent)
    {
        i -= 2;
    }
    if i < 1 || text(i - 1) != "=" {
        return None;
    }
    let mut j = i - 1;
    if j == 0 {
        return None;
    }
    j -= 1; // the binding name
    if !matches!(kind(j), TokenKind::Ident | TokenKind::RawIdent) {
        return None;
    }
    let name = text(j).to_string();
    // Optional type ascription is not supported (rare for guards); require
    // `let` or `let mut` immediately before.
    if j >= 1 && text(j - 1) == "let" {
        return Some(name);
    }
    if j >= 2 && text(j - 1) == "mut" && text(j - 2) == "let" {
        return Some(name);
    }
    None
}

/// From the `(` after index `k`, skip the balanced arg list, then require
/// that everything up to the `;` is a guard-preserving adapter chain
/// (`.unwrap() .expect("…") .unwrap_or_else(|p| p.into_inner()) ?`).
fn adapters_only_to_semicolon(model: &FileModel<'_>, body: &[usize], k: usize) -> bool {
    let text = |k: usize| model.sig_text(body[k]);
    let n = body.len();
    let mut i = k + 1;
    // Skip turbofish if present.
    if i + 1 < n && text(i) == ":" && text(i + 1) == ":" {
        i += 2;
        if i < n && text(i) == "<" {
            let mut d = 0i32;
            while i < n {
                match text(i) {
                    "<" => d += 1,
                    ">" => {
                        d -= 1;
                        if d == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
    }
    if i >= n || text(i) != "(" {
        return false;
    }
    // Balanced arg list.
    let mut d = 0i32;
    while i < n {
        match text(i) {
            "(" | "[" | "{" => d += 1,
            ")" | "]" | "}" => {
                d -= 1;
                if d == 0 {
                    i += 1;
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Adapter chain to `;`.
    while i < n {
        match text(i) {
            ";" => return true,
            "?" => i += 1,
            "." if i + 2 < n && GUARD_ADAPTERS.contains(&text(i + 1)) && text(i + 2) == "(" => {
                // Skip the adapter's balanced arg list.
                let mut d = 0i32;
                i += 2;
                while i < n {
                    match text(i) {
                        "(" | "[" | "{" => d += 1,
                        ")" | "]" | "}" => {
                            d -= 1;
                            if d == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            _ => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::build_model;

    fn summary(path: &str, src: &str) -> FileSummary {
        summarize(&build_model(path, src))
    }

    #[test]
    fn impl_owner_and_receiver() {
        let src = "struct S;\nimpl S {\n  fn m(&self) -> u32 { 1 }\n  fn s() -> u32 { 2 }\n}\nfn free() {}\n";
        let s = summary("crates/core/src/session.rs", src);
        let names: Vec<(&str, &str, bool)> = s
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_str(), f.has_self))
            .collect();
        assert_eq!(
            names,
            vec![("m", "S", true), ("s", "S", false), ("free", "", false)]
        );
    }

    #[test]
    fn trait_impl_owner_is_the_type() {
        let src = "impl Clone for Session {\n  fn clone(&self) -> Self { todo!() }\n}\n";
        let s = summary("crates/core/src/session.rs", src);
        assert_eq!(s.fns[0].owner, "Session");
    }

    #[test]
    fn guard_returning_header() {
        let src = "impl S {\n  fn state(&self) -> RwLockReadGuard<'_, T> {\n    self.state.read().unwrap_or_else(|p| p.into_inner())\n  }\n}\n";
        let s = summary("crates/core/src/session.rs", src);
        assert!(s.fns[0].returns_guard);
        assert_eq!(s.fns[0].acqs.len(), 1);
        assert_eq!(s.fns[0].acqs[0].field, "state");
    }

    #[test]
    fn held_vs_temporary_acquisition() {
        let src = "impl S {\n  fn f(&self) {\n    let g = self.state.write().unwrap_or_else(|p| p.into_inner());\n    let n = self.full_db.read().unwrap().len();\n    self.other.lock().unwrap();\n  }\n}\n";
        let s = summary("crates/core/src/session.rs", src);
        let acqs = &s.fns[0].acqs;
        assert_eq!(acqs.len(), 3);
        assert!(acqs[0].held, "let-bound adapter chain is held");
        assert!(!acqs[1].held, "`.len()` after unwrap drops the guard");
        assert!(!acqs[2].held, "unbound statement drops the guard");
        // The 2nd and 3rd acquisitions run while `state` is held.
        assert_eq!(acqs[1].held_fields, vec!["state".to_string()]);
        assert_eq!(acqs[2].held_fields, vec!["state".to_string()]);
    }

    #[test]
    fn block_scope_and_drop_release_guards() {
        let src = "impl S {\n  fn f(&self) {\n    {\n      let g = self.a.lock().unwrap();\n      self.b.lock().unwrap();\n    }\n    self.c.lock().unwrap();\n    let h = self.d.lock().unwrap();\n    drop(h);\n    self.e.lock().unwrap();\n  }\n}\n";
        let s = summary("crates/core/src/session.rs", src);
        let by_field: Vec<(&str, Vec<String>)> = s.fns[0]
            .acqs
            .iter()
            .map(|a| (a.field.as_str(), a.held_fields.clone()))
            .collect();
        assert_eq!(by_field[1], ("b", vec!["a".to_string()])); // inside block
        assert_eq!(by_field[2], ("c", vec![])); // block closed
        assert_eq!(by_field[4], ("e", vec![])); // dropped
    }

    #[test]
    fn calls_are_classified() {
        let src = "impl S {\n  fn f(&self) {\n    self.helper();\n    other.method();\n    free_fn(1);\n    Database::execute(q);\n    Self::assoc();\n  }\n}\n";
        let s = summary("crates/core/src/session.rs", src);
        let calls: Vec<(&str, CallKind, &str)> = s.fns[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.kind, c.qual.as_str()))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("helper", CallKind::SelfDot, ""),
                ("method", CallKind::Method, ""),
                ("free_fn", CallKind::Free, ""),
                ("execute", CallKind::Qualified, "Database"),
                ("assoc", CallKind::Qualified, "S"),
            ]
        );
    }

    #[test]
    fn guard_call_is_live_until_scope_end() {
        let src = "impl S {\n  fn f(&self) {\n    let state = self.state();\n    self.full_db();\n  }\n}\n";
        let s = summary("crates/core/src/session.rs", src);
        let full_db = s.fns[0].calls.iter().find(|c| c.name == "full_db").unwrap();
        assert_eq!(full_db.held_calls, vec!["state".to_string()]);
    }

    #[test]
    fn panic_sites_collected() {
        let src = "fn f(v: &[u8]) {\n  let a = v.first().unwrap();\n  let b = v[0];\n  if b > 1 { panic!(\"no\"); }\n}\n";
        let s = summary("crates/db/src/exec.rs", src);
        let whats: Vec<&str> = s.fns[0].panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(whats, vec!["`.unwrap()`", "indexing", "`panic!`"]);
    }

    #[test]
    fn audit_attaches_to_next_fn_only() {
        let src =
            "// asqp::panic-free-audited: bounds pre-checked by caller\nfn a() {}\nfn b() {}\n";
        let s = summary("crates/db/src/exec.rs", src);
        assert!(s.fns[0].audited);
        assert!(!s.fns[1].audited);
    }
}
