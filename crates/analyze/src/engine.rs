//! The path/scope-aware analysis engine.
//!
//! Sits between the lexer and the rules: walks a file's token stream once
//! and produces a [`FileModel`] with, for every significant token, the
//! inline-module path, the enclosing function, and whether the token is in
//! test code (`#[cfg(test)]` module, `#[test]` function, or a file under
//! `tests/` / `examples/` / `benches/`). It also collects the suppression
//! pragmas (`// asqp::allow(rule): reason`) and in-order-merge markers
//! (`// asqp::in-order-merge: reason`) that the rules and the pragma
//! validator consume.

use crate::lexer::{lex, line_col, Token, TokenKind};
use std::collections::BTreeSet;

/// Module path of a file derived from its workspace-relative path, e.g.
/// `crates/db/src/exec/vector.rs` → `["asqp_db", "exec", "vector"]`.
/// Returns `None` for files that are entirely test/bench/example code.
pub fn file_module(rel_path: &str) -> Option<Vec<String>> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts
        .iter()
        .any(|p| *p == "tests" || *p == "examples" || *p == "benches")
    {
        return None;
    }
    let (crate_name, rest): (String, &[&str]) = if parts.first() == Some(&"crates") {
        if parts.len() < 3 || parts[2] != "src" {
            return None;
        }
        (format!("asqp_{}", parts[1].replace('-', "_")), &parts[3..])
    } else if parts.first() == Some(&"src") {
        ("asqp".to_string(), &parts[1..])
    } else {
        return None;
    };
    let mut module = vec![crate_name];
    for (i, seg) in rest.iter().enumerate() {
        let last = i + 1 == rest.len();
        if last {
            match seg.strip_suffix(".rs") {
                Some("lib") | Some("mod") => {}
                Some("main") => module.push("bin".to_string()),
                Some(stem) => module.push(stem.to_string()),
                None => return None,
            }
        } else if *seg == "bin" {
            module.push("bin".to_string());
        } else {
            module.push(seg.to_string());
        }
    }
    Some(module)
}

/// Does `module` fall under `prefix` at a segment boundary?
/// (`asqp_db::exec` covers `asqp_db::exec` and `asqp_db::exec::vector`,
/// not `asqp_db::executor`.)
pub fn module_matches(module: &[String], prefix: &str) -> bool {
    let pre: Vec<&str> = prefix.split("::").collect();
    if pre.len() > module.len() {
        return false;
    }
    pre.iter().zip(module).all(|(p, m)| *p == m)
}

/// Context attached to each significant token.
#[derive(Debug, Clone, Copy)]
pub struct TokCtx {
    /// Index into [`FileModel::modules`].
    pub module: u32,
    /// Index into [`FileModel::fns`], if inside a function body.
    pub fn_id: Option<u32>,
    /// Inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
}

/// One function body encountered in the file.
#[derive(Debug, Clone)]
pub struct FnScope {
    pub name: String,
    /// Byte offset of the `fn` keyword — the header (params, return type)
    /// spans `[header_start, body_start)`.
    pub header_start: usize,
    /// Byte range of the body (from `{` to the matching `}`), used to
    /// attach comments (markers) to their enclosing function.
    pub body_start: usize,
    pub body_end: usize,
}

/// A suppression pragma: `// asqp::allow(rule): reason`.
#[derive(Debug, Clone)]
pub struct Allow {
    pub rule: String,
    pub line: usize,
    pub col: usize,
    /// The line whose findings this pragma suppresses (its own line for a
    /// trailing comment, the next code line otherwise).
    pub target_line: usize,
    pub used: std::cell::Cell<bool>,
}

/// An in-order-merge marker: `// asqp::in-order-merge: reason`, attached
/// to the innermost function whose body contains it.
#[derive(Debug, Clone)]
pub struct Marker {
    pub fn_id: Option<u32>,
    pub line: usize,
}

/// A malformed pragma (missing reason, unknown shape) — always an error.
#[derive(Debug, Clone)]
pub struct BadPragma {
    pub line: usize,
    pub col: usize,
    pub why: String,
}

/// A `// asqp::panic-free-audited: reason` pragma: asserts the function
/// item that follows it is panic-free regardless of what the call-graph
/// analysis can prove (the escape hatch for dynamic dispatch and
/// invariant-guarded indexing). Matched to its function in `parse`.
#[derive(Debug, Clone)]
pub struct Audit {
    pub line: usize,
    pub col: usize,
    /// Byte offset just past the pragma comment — the audited fn is the
    /// first one whose header starts after this.
    pub end: usize,
}

/// Everything the rules need to analyse one file.
pub struct FileModel<'s> {
    pub src: &'s str,
    pub rel_path: String,
    /// Full lossless token stream.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of significant (non-whitespace, non-comment)
    /// tokens.
    pub sig: Vec<usize>,
    /// Context per entry of `sig`.
    pub ctx: Vec<TokCtx>,
    /// Distinct module paths seen (file module plus inline `mod`s).
    pub modules: Vec<Vec<String>>,
    pub fns: Vec<FnScope>,
    pub allows: Vec<Allow>,
    pub markers: Vec<Marker>,
    pub audits: Vec<Audit>,
    pub bad_pragmas: Vec<BadPragma>,
    /// Identifiers bound to `HashMap`/`HashSet` in this file (let
    /// bindings, fn params, struct fields).
    pub hash_bindings: BTreeSet<String>,
}

impl<'s> FileModel<'s> {
    /// Significant-token text by `sig` index.
    pub fn sig_text(&self, i: usize) -> &'s str {
        self.tokens[self.sig[i]].text(self.src)
    }

    pub fn sig_kind(&self, i: usize) -> TokenKind {
        self.tokens[self.sig[i]].kind
    }

    /// Line/col of significant token `i`.
    pub fn sig_pos(&self, i: usize) -> (usize, usize) {
        line_col(self.src, self.tokens[self.sig[i]].start)
    }

    pub fn module_of(&self, i: usize) -> &[String] {
        &self.modules[self.ctx[i].module as usize]
    }

    /// Does any in-order-merge marker sit in the same function as
    /// significant token `i`?
    pub fn marker_in_same_fn(&self, i: usize) -> bool {
        let fn_id = self.ctx[i].fn_id;
        fn_id.is_some() && self.markers.iter().any(|m| m.fn_id == fn_id)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    Block,
    Module,
    TestModule,
    Fn(u32),
    TestFn(u32),
}

struct Scope {
    kind: ScopeKind,
    /// Length of the inline-module segment stack when this scope opened.
    mod_depth: usize,
}

/// Build the [`FileModel`] for one file. `rel_path` must be
/// workspace-relative with `/` separators. Files whose path yields no
/// module (pure test/bench/example files) are modelled with `in_test`
/// on every token.
pub fn build_model<'s>(rel_path: &str, src: &'s str) -> FileModel<'s> {
    let tokens = lex(src);
    let file_mod = file_module(rel_path);
    let all_test = file_mod.is_none();
    let base_mod = file_mod.unwrap_or_else(|| vec!["test_file".to_string()]);

    let mut model = FileModel {
        src,
        rel_path: rel_path.to_string(),
        tokens,
        sig: Vec::new(),
        ctx: Vec::new(),
        modules: vec![base_mod.clone()],
        fns: Vec::new(),
        allows: Vec::new(),
        markers: Vec::new(),
        audits: Vec::new(),
        bad_pragmas: Vec::new(),
        hash_bindings: BTreeSet::new(),
    };

    // ---- pass 1: scope walk over significant tokens -------------------
    let mut scopes: Vec<Scope> = Vec::new();
    let mut mod_segments: Vec<String> = Vec::new();
    let mut cur_module: u32 = 0;
    // Pending item: set by `mod NAME` / `fn NAME`, resolved at `{` or `;`.
    #[derive(Clone)]
    enum Pending {
        Mod(String, bool),       // name, test-attr
        Fn(String, bool, usize), // name, test-attr, header byte offset
        None,
    }
    let mut pending = Pending::None;
    // `#[…]` attribute carrying cfg(test)/test, waiting for its item.
    let mut attr_test = false;
    let mut open_fn_brace: Vec<(u32, usize)> = Vec::new(); // (fn_id, body_start)

    let n = model.tokens.len();
    let mut i = 0usize;
    let sig_of = |model: &FileModel<'_>, tok_idx: usize| model.tokens[tok_idx];
    while i < n {
        let tok = sig_of(&model, i);
        match tok.kind {
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment => {
                i += 1;
                continue;
            }
            _ => {}
        }
        let text = tok.text(src);

        // Attributes: `#` `[` … `]` (balanced). Detect `test` / `cfg(test)`.
        if text == "#" {
            // find the `[`
            let mut j = i + 1;
            while j < n
                && matches!(
                    model.tokens[j].kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            {
                j += 1;
            }
            if j < n && model.tokens[j].text(src) == "[" {
                let mut depth = 0i32;
                let mut has_test = false;
                let mut k = j;
                while k < n {
                    let t = model.tokens[k].text(src);
                    match t {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        "test" => has_test = true,
                        _ => {}
                    }
                    k += 1;
                }
                if has_test {
                    attr_test = true;
                }
                // Record the attribute tokens as significant and move on.
                let in_test_now = all_test
                    || scopes
                        .iter()
                        .any(|s| matches!(s.kind, ScopeKind::TestModule | ScopeKind::TestFn(_)));
                let fn_id = scopes.iter().rev().find_map(|s| match s.kind {
                    ScopeKind::Fn(id) | ScopeKind::TestFn(id) => Some(id),
                    _ => None,
                });
                for idx in i..=k.min(n - 1) {
                    if !matches!(
                        model.tokens[idx].kind,
                        TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                    ) {
                        model.sig.push(idx);
                        model.ctx.push(TokCtx {
                            module: cur_module,
                            fn_id,
                            in_test: in_test_now,
                        });
                    }
                }
                i = k + 1;
                continue;
            }
        }

        // Item starts.
        match text {
            "mod" => {
                // `mod NAME { … }` or `mod NAME;`
                if let Some(name_tok) = next_sig(&model.tokens, src, i + 1) {
                    let name = model.tokens[name_tok].text(src).to_string();
                    pending = Pending::Mod(name, attr_test);
                    attr_test = false;
                }
            }
            "fn" => {
                if let Some(name_tok) = next_sig(&model.tokens, src, i + 1) {
                    let nt = model.tokens[name_tok];
                    if nt.kind == TokenKind::Ident || nt.kind == TokenKind::RawIdent {
                        pending = Pending::Fn(nt.text(src).to_string(), attr_test, tok.start);
                        attr_test = false;
                    }
                }
            }
            "{" => {
                let kind = match std::mem::replace(&mut pending, Pending::None) {
                    Pending::Mod(name, test) => {
                        mod_segments.push(name);
                        let mut full = base_mod.clone();
                        full.extend(mod_segments.iter().cloned());
                        cur_module = intern_module(&mut model.modules, full);
                        if test {
                            ScopeKind::TestModule
                        } else {
                            ScopeKind::Module
                        }
                    }
                    Pending::Fn(name, test, header_start) => {
                        let id = model.fns.len() as u32;
                        model.fns.push(FnScope {
                            name,
                            header_start,
                            body_start: tok.start,
                            body_end: src.len(),
                        });
                        open_fn_brace.push((id, tok.start));
                        if test {
                            ScopeKind::TestFn(id)
                        } else {
                            ScopeKind::Fn(id)
                        }
                    }
                    Pending::None => ScopeKind::Block,
                };
                scopes.push(Scope {
                    kind,
                    mod_depth: mod_segments.len(),
                });
            }
            "}" => {
                if let Some(s) = scopes.pop() {
                    if matches!(s.kind, ScopeKind::Module | ScopeKind::TestModule) {
                        mod_segments.truncate(s.mod_depth.saturating_sub(1));
                        let mut full = base_mod.clone();
                        full.extend(mod_segments.iter().cloned());
                        cur_module = intern_module(&mut model.modules, full);
                    }
                    if let ScopeKind::Fn(id) | ScopeKind::TestFn(id) = s.kind {
                        model.fns[id as usize].body_end = tok.end;
                        open_fn_brace.retain(|&(fid, _)| fid != id);
                    }
                }
            }
            ";" => {
                // `mod name;`, `use …;`, fn declarations without bodies.
                pending = Pending::None;
                attr_test = false;
            }
            _ => {}
        }

        let in_test_now = all_test
            || scopes
                .iter()
                .any(|s| matches!(s.kind, ScopeKind::TestModule | ScopeKind::TestFn(_)));
        let fn_id = scopes.iter().rev().find_map(|s| match s.kind {
            ScopeKind::Fn(id) | ScopeKind::TestFn(id) => Some(id),
            _ => None,
        });
        model.sig.push(i);
        model.ctx.push(TokCtx {
            module: cur_module,
            fn_id,
            in_test: in_test_now,
        });
        i += 1;
    }

    collect_pragmas(&mut model);
    collect_hash_bindings(&mut model);
    model
}

fn intern_module(modules: &mut Vec<Vec<String>>, full: Vec<String>) -> u32 {
    if let Some(pos) = modules.iter().position(|m| *m == full) {
        pos as u32
    } else {
        modules.push(full);
        (modules.len() - 1) as u32
    }
}

fn next_sig(tokens: &[Token], _src: &str, from: usize) -> Option<usize> {
    (from..tokens.len()).find(|&j| {
        !matches!(
            tokens[j].kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    })
}

/// Strip comment markers and leading whitespace: a comment is a pragma
/// only when the directive *leads* it (`// asqp::allow(…): …`), so prose
/// that merely mentions the syntax (docs, help strings) is never parsed.
fn comment_directive(text: &str) -> &str {
    text.trim_start_matches(['/', '*', '!']).trim_start()
}

/// Scan comments for `asqp::allow(rule): reason` pragmas and
/// `asqp::in-order-merge: reason` markers.
fn collect_pragmas(model: &mut FileModel<'_>) {
    let src = model.src;
    for tok in model.tokens.iter() {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = comment_directive(tok.text(src));
        let (line, col) = line_col(src, tok.start);
        if let Some(rest) = text.strip_prefix("asqp::allow") {
            match parse_allow(rest) {
                Ok(rule) => {
                    // Trailing comment (code before it on the same line)
                    // targets its own line; a standalone pragma targets the
                    // next line holding a significant token.
                    let own_line_has_code = model.sig.iter().any(|&s| {
                        let t = model.tokens[s];
                        t.start < tok.start && line_col(src, t.start).0 == line
                    });
                    let target_line = if own_line_has_code {
                        line
                    } else {
                        model
                            .sig
                            .iter()
                            .map(|&s| model.tokens[s])
                            .find(|t| t.start > tok.end)
                            .map(|t| line_col(src, t.start).0)
                            .unwrap_or(line)
                    };
                    model.allows.push(Allow {
                        rule,
                        line,
                        col,
                        target_line,
                        used: std::cell::Cell::new(false),
                    });
                }
                Err(why) => model.bad_pragmas.push(BadPragma { line, col, why }),
            }
        } else if let Some(rest) = text.strip_prefix("asqp::panic-free-audited") {
            let reason = rest.strip_prefix(':').map(str::trim).unwrap_or("");
            if reason.is_empty() {
                model.bad_pragmas.push(BadPragma {
                    line,
                    col,
                    why: "panic-free-audited pragma needs a written justification: \
                          `// asqp::panic-free-audited: <why this fn cannot panic>`"
                        .to_string(),
                });
            } else {
                model.audits.push(Audit {
                    line,
                    col,
                    end: tok.end,
                });
            }
        } else if let Some(rest) = text.strip_prefix("asqp::in-order-merge") {
            let reason = rest.strip_prefix(':').map(str::trim).unwrap_or("");
            if reason.is_empty() {
                model.bad_pragmas.push(BadPragma {
                    line,
                    col,
                    why: "in-order-merge marker needs a reason: \
                          `// asqp::in-order-merge: <why the merge is ordered>`"
                        .to_string(),
                });
            } else {
                let fn_id = model
                    .fns
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.body_start <= tok.start && tok.end <= f.body_end)
                    .max_by_key(|(_, f)| f.body_start)
                    .map(|(i, _)| i as u32);
                model.markers.push(Marker { fn_id, line });
            }
        }
    }
}

/// Parse the tail of an allow pragma: `(rule): reason`.
fn parse_allow(rest: &str) -> Result<String, String> {
    let rest = rest.trim_start();
    let inner = rest
        .strip_prefix('(')
        .and_then(|r| r.split_once(')'))
        .ok_or_else(|| {
            "malformed allow pragma: expected `asqp::allow(rule_id): reason`".to_string()
        })?;
    let (rule, after) = inner;
    let rule = rule.trim();
    if rule.is_empty() {
        return Err("allow pragma has an empty rule id".to_string());
    }
    let reason = after.trim_start().strip_prefix(':').map(str::trim);
    match reason {
        Some(r) if !r.is_empty() => Ok(rule.to_string()),
        _ => Err(format!(
            "allow pragma for `{rule}` needs a written justification: \
             `// asqp::allow({rule}): <reason>`"
        )),
    }
}

/// Record identifiers declared with `HashMap`/`HashSet` types: annotated
/// bindings and fields (`name: HashMap<…>`) and inferred let bindings
/// whose initialiser mentions the type (`let m = HashMap::new()`,
/// `.collect::<HashSet<_>>()`).
fn collect_hash_bindings(model: &mut FileModel<'_>) {
    let sig_texts: Vec<&str> = (0..model.sig.len()).map(|i| model.sig_text(i)).collect();
    let is_hash = |t: &str| t == "HashMap" || t == "HashSet";
    let n = sig_texts.len();
    for i in 0..n {
        // `NAME : … HashMap …` up to a delimiter that ends the type.
        if sig_texts[i] == ":"
            && i > 0
            && model.sig_kind(i - 1) == TokenKind::Ident
            && (i < 2 || sig_texts[i - 2] != ":")
        {
            let name = sig_texts[i - 1];
            if !name
                .chars()
                .next()
                .is_some_and(|c| c.is_lowercase() || c == '_')
            {
                continue; // type ascriptions on paths, struct names, etc.
            }
            let mut depth = 0i32;
            for &t in &sig_texts[i + 1..] {
                match t {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    "," | ";" | "=" | "{" if depth == 0 => break,
                    t if is_hash(t) => {
                        model.hash_bindings.insert(name.to_string());
                        break;
                    }
                    _ => {}
                }
            }
        }
        // `let [mut] NAME = … HashMap/HashSet … ;`
        if sig_texts[i] == "let" {
            let mut j = i + 1;
            if j < n && sig_texts[j] == "mut" {
                j += 1;
            }
            if j < n && model.sig_kind(j) == TokenKind::Ident {
                let name = sig_texts[j].to_string();
                if j + 1 < n && sig_texts[j + 1] == "=" {
                    for &t in &sig_texts[j + 2..] {
                        if t == ";" {
                            break;
                        }
                        if is_hash(t) {
                            model.hash_bindings.insert(name);
                            break;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_module_paths() {
        assert_eq!(
            file_module("crates/db/src/exec/vector.rs").unwrap(),
            vec!["asqp_db", "exec", "vector"]
        );
        assert_eq!(
            file_module("crates/core/src/lib.rs").unwrap(),
            vec!["asqp_core"]
        );
        assert_eq!(file_module("src/lib.rs").unwrap(), vec!["asqp"]);
        assert_eq!(
            file_module("crates/serve/src/bin/replay.rs").unwrap(),
            vec!["asqp_serve", "bin", "replay"]
        );
        assert!(file_module("crates/db/tests/sql_roundtrip.rs").is_none());
        assert!(file_module("crates/rl/examples/ppo_profile.rs").is_none());
    }

    #[test]
    fn module_prefix_matching() {
        let m: Vec<String> = vec!["asqp_db".into(), "exec".into(), "vector".into()];
        assert!(module_matches(&m, "asqp_db"));
        assert!(module_matches(&m, "asqp_db::exec"));
        assert!(module_matches(&m, "asqp_db::exec::vector"));
        assert!(!module_matches(&m, "asqp_db::exec::vector::deeper"));
        assert!(!module_matches(&m, "asqp_rl"));
    }

    #[test]
    fn cfg_test_module_marks_tokens() {
        let src = "fn live() { x(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y(); }\n}\n";
        let m = build_model("crates/db/src/lib.rs", src);
        let x = (0..m.sig.len()).find(|&i| m.sig_text(i) == "x").unwrap();
        let y = (0..m.sig.len()).find(|&i| m.sig_text(i) == "y").unwrap();
        assert!(!m.ctx[x].in_test);
        assert!(m.ctx[y].in_test);
    }

    #[test]
    fn test_attr_on_fn_marks_body() {
        let src = "#[test]\nfn check() { z(); }\nfn live() { w(); }\n";
        let m = build_model("crates/db/src/lib.rs", src);
        let z = (0..m.sig.len()).find(|&i| m.sig_text(i) == "z").unwrap();
        let w = (0..m.sig.len()).find(|&i| m.sig_text(i) == "w").unwrap();
        assert!(m.ctx[z].in_test);
        assert!(!m.ctx[w].in_test);
    }

    #[test]
    fn inline_modules_extend_the_path() {
        let src = "mod inner { fn f() { g(); } }\nfn top() {}\n";
        let m = build_model("crates/rl/src/lib.rs", src);
        let g = (0..m.sig.len()).find(|&i| m.sig_text(i) == "g").unwrap();
        assert_eq!(
            m.module_of(g),
            &["asqp_rl".to_string(), "inner".to_string()][..]
        );
        let top = (0..m.sig.len()).find(|&i| m.sig_text(i) == "top").unwrap();
        assert_eq!(m.module_of(top), &["asqp_rl".to_string()][..]);
    }

    #[test]
    fn allow_pragma_parses_and_targets_next_line() {
        let src = "fn f() {\n    // asqp::allow(nondet): timing is telemetry-only\n    now();\n}\n";
        let m = build_model("crates/rl/src/lib.rs", src);
        assert_eq!(m.allows.len(), 1);
        assert_eq!(m.allows[0].rule, "nondet");
        assert_eq!(m.allows[0].target_line, 3);
        assert!(m.bad_pragmas.is_empty());
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let src = "fn f() {\n    now(); // asqp::allow(nondet): bench-only timing\n}\n";
        let m = build_model("crates/rl/src/lib.rs", src);
        assert_eq!(m.allows[0].target_line, 2);
    }

    #[test]
    fn reasonless_pragmas_are_bad() {
        let src = "// asqp::allow(nondet)\nfn f() {}\n// asqp::in-order-merge\nfn g() {}\n";
        let m = build_model("crates/rl/src/lib.rs", src);
        assert_eq!(m.bad_pragmas.len(), 2, "{:?}", m.bad_pragmas);
        assert!(m.allows.is_empty());
        assert!(m.markers.is_empty());
    }

    #[test]
    fn markers_attach_to_their_function() {
        let src = "fn merge() {\n    // asqp::in-order-merge: joined in spawn order\n    s();\n}\nfn other() { t(); }\n";
        let m = build_model("crates/rl/src/lib.rs", src);
        assert_eq!(m.markers.len(), 1);
        let s = (0..m.sig.len()).find(|&i| m.sig_text(i) == "s").unwrap();
        let t = (0..m.sig.len()).find(|&i| m.sig_text(i) == "t").unwrap();
        assert!(m.marker_in_same_fn(s));
        assert!(!m.marker_in_same_fn(t));
    }

    #[test]
    fn hash_bindings_from_annotations_and_inference() {
        let src = "struct S { cache: HashMap<String, u64> }\n\
                   fn f(seen: HashSet<u32>) {\n\
                       let mut groups = HashMap::new();\n\
                       let ok: Vec<u32> = vec![];\n\
                       let direct: HashMap<u8, u8> = HashMap::new();\n\
                   }\n";
        let m = build_model("crates/db/src/lib.rs", src);
        for name in ["cache", "seen", "groups", "direct"] {
            assert!(
                m.hash_bindings.contains(name),
                "missing {name}: {:?}",
                m.hash_bindings
            );
        }
        assert!(!m.hash_bindings.contains("ok"));
    }
}
