//! The rule engine: pragma collection, `#[cfg(test)]`/`#[test]` range
//! exclusion, and the five shipped rules. Rules are token-sequence
//! matchers over a comment-free token view; they never parse.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{lex, Token, TokenKind};

/// Stable ids of every shipped rule, in catalog order.
pub const RULE_IDS: [&str; 5] = [
    NO_PANIC_IN_LIB,
    NO_WALLCLOCK,
    NO_UNORDERED_ITER,
    NO_ENV_IN_CORE,
    REGISTRY_DOC_COHERENCE,
];

/// Panic-free zone rule id.
pub const NO_PANIC_IN_LIB: &str = "no-panic-in-lib";
/// Wall-clock rule id.
pub const NO_WALLCLOCK: &str = "no-wallclock";
/// Unordered-iteration rule id.
pub const NO_UNORDERED_ITER: &str = "no-unordered-iter";
/// Environment-read rule id.
pub const NO_ENV_IN_CORE: &str = "no-env-in-core";
/// Registry/DESIGN.md coherence rule id.
pub const REGISTRY_DOC_COHERENCE: &str = "registry-doc-coherence";

/// A lexed file plus the side tables rules need: suppression pragmas
/// and test-only line ranges.
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub path: String,
    tokens: Vec<Token>,
    /// `(line, rule, standalone)` from `aging-lint: allow(...)`
    /// pragmas; a trailing pragma suppresses its own line, a
    /// standalone pragma comment suppresses the line below it.
    pragmas: Vec<(u32, String, bool)>,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]`
    /// items; rules skip tokens inside them.
    test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lexes `source` and precomputes pragma and test-range tables.
    pub fn parse(path: &str, source: &str) -> Self {
        let tokens = lex(source);
        let pragmas = collect_pragmas(&tokens);
        let test_ranges = collect_test_ranges(&tokens);
        SourceFile {
            path: path.to_string(),
            tokens,
            pragmas,
            test_ranges,
        }
    }

    /// Tokens with comments stripped (what rule matchers see).
    fn code(&self) -> Vec<&Token> {
        self.tokens
            .iter()
            .filter(|t| t.kind != TokenKind::Comment)
            .collect()
    }

    fn in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    fn suppressed(&self, line: u32, rule: &str) -> bool {
        self.pragmas
            .iter()
            .any(|(l, r, standalone)| (*l == line || (*standalone && l + 1 == line)) && r == rule)
    }

    fn diag(&self, tok: &Token, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: self.path.clone(),
            line: tok.line,
            col: tok.col,
            rule,
            severity: Severity::Error,
            message,
        }
    }
}

/// Extracts `aging-lint: allow(rule-a, rule-b) optional justification`
/// pragmas from comment tokens.
fn collect_pragmas(tokens: &[Token]) -> Vec<(u32, String, bool)> {
    let mut out = Vec::new();
    for tok in tokens.iter().filter(|t| t.kind == TokenKind::Comment) {
        let Some(at) = tok.text.find("aging-lint:") else {
            continue;
        };
        let rest = tok.text[at + "aging-lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let standalone = !tokens
            .iter()
            .any(|t| t.kind != TokenKind::Comment && t.line == tok.line && t.col < tok.col);
        for rule in rest[..close].split(',') {
            out.push((tok.line, rule.trim().to_string(), standalone));
        }
    }
    out
}

/// Finds line ranges of items annotated `#[cfg(test)]` or `#[test]`
/// (including `cfg(all(test, …))` and the like): from the attribute to
/// the matching close brace of the item's body, or to the terminating
/// semicolon for brace-less items.
fn collect_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !(is_punct(code.get(i), "#") && is_punct(code.get(i + 1), "[")) {
            i += 1;
            continue;
        }
        // Scan the attribute body up to its matching `]`, looking for
        // the ident `test` (covers `test`, `cfg(test)`,
        // `cfg(all(test, …))`).
        let start_line = code[i].line;
        let mut j = i + 2;
        let mut depth = 1usize; // the `[` we just saw
        let mut is_test_attr = false;
        while j < code.len() && depth > 0 {
            match (code[j].kind, code[j].text.as_str()) {
                (TokenKind::Punct, "[") => depth += 1,
                (TokenKind::Punct, "]") => depth -= 1,
                (TokenKind::Ident, "test") => is_test_attr = true,
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr {
            i = j;
            continue;
        }
        // The annotated item runs to the matching `}` of its first
        // brace, or to a `;` that appears before any brace.
        let mut brace_depth = 0usize;
        let mut saw_brace = false;
        let mut end_line = code.get(j.saturating_sub(1)).map_or(start_line, |t| t.line);
        while j < code.len() {
            let t = code[j];
            end_line = t.line;
            match (t.kind, t.text.as_str()) {
                (TokenKind::Punct, "{") => {
                    brace_depth += 1;
                    saw_brace = true;
                }
                (TokenKind::Punct, "}") => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if saw_brace && brace_depth == 0 {
                        j += 1;
                        break;
                    }
                }
                (TokenKind::Punct, ";") if !saw_brace => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        ranges.push((start_line, end_line));
        i = j;
    }
    ranges
}

fn is_punct(tok: Option<&&Token>, text: &str) -> bool {
    tok.is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

fn is_ident(tok: Option<&&Token>, text: &str) -> bool {
    tok.is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

/// `a :: b` ending at index `i` of `b`: true if tokens `i-2..=i-1` are
/// `::`.
fn after_path_sep(code: &[&Token], i: usize) -> bool {
    i >= 2 && is_punct(code.get(i - 2), ":") && is_punct(code.get(i - 1), ":")
}

/// Keywords that may directly precede `[` without forming an indexing
/// expression (slice patterns, array types, attribute openers are
/// handled separately).
const NON_INDEXABLE_KEYWORDS: [&str; 30] = [
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "move", "mut", "pub", "ref", "return",
    "static", "struct", "trait", "type", "union", "unsafe",
];

/// Zones, relative to the repo root, with forward slashes.
fn panic_zone(path: &str) -> bool {
    [
        "crates/core/src/render.rs",
        "crates/core/src/report.rs",
        "crates/core/src/json.rs",
        "crates/core/src/analysis.rs",
        "crates/core/src/rescache.rs",
        "crates/core/src/serve.rs",
        "crates/core/src/search.rs",
        "crates/core/src/workload.rs",
        "crates/sim/src/hierarchy.rs",
        "crates/traces/src/formats.rs",
    ]
    .contains(&path)
}

fn wallclock_zone(path: &str) -> bool {
    !path.starts_with("crates/bench/")
}

fn unordered_zone(path: &str) -> bool {
    panic_zone(path)
        || [
            "crates/core/src/views.rs",
            "crates/core/src/session.rs",
            "crates/core/src/study.rs",
            "crates/core/src/model.rs",
            "crates/core/src/check.rs",
        ]
        .contains(&path)
}

fn env_zone(path: &str) -> bool {
    !path.contains("/bin/")
}

fn registry_zone(path: &str) -> bool {
    [
        "crates/core/src/registry.rs",
        "crates/core/src/model.rs",
        "crates/core/src/workload.rs",
        "crates/core/src/serve.rs",
        "crates/core/src/search.rs",
        "crates/sim/src/replacement.rs",
    ]
    .contains(&path)
}

/// Which rules apply to a repo-relative path when linting the
/// workspace. Fixture/explicit-file runs apply every rule instead.
pub fn rules_for_path(path: &str) -> Vec<&'static str> {
    let mut out = Vec::new();
    if panic_zone(path) {
        out.push(NO_PANIC_IN_LIB);
    }
    if wallclock_zone(path) {
        out.push(NO_WALLCLOCK);
    }
    if unordered_zone(path) {
        out.push(NO_UNORDERED_ITER);
    }
    if env_zone(path) {
        out.push(NO_ENV_IN_CORE);
    }
    if registry_zone(path) {
        out.push(REGISTRY_DOC_COHERENCE);
    }
    out
}

/// Runs `rules` over one parsed file. `design_doc` is the DESIGN.md
/// text used by `registry-doc-coherence`; pass `None` to skip that
/// lookup (the rule then reports nothing).
pub fn run_rules(
    file: &SourceFile,
    rules: &[&'static str],
    design_doc: Option<&str>,
) -> Vec<Diagnostic> {
    let code = file.code();
    let mut diags = Vec::new();
    for &rule in rules {
        match rule {
            NO_PANIC_IN_LIB => no_panic_in_lib(file, &code, &mut diags),
            NO_WALLCLOCK => no_wallclock(file, &code, &mut diags),
            NO_UNORDERED_ITER => no_unordered_iter(file, &code, &mut diags),
            NO_ENV_IN_CORE => no_env_in_core(file, &code, &mut diags),
            REGISTRY_DOC_COHERENCE => {
                if let Some(doc) = design_doc {
                    registry_doc_coherence(file, &code, doc, &mut diags);
                }
            }
            _ => {}
        }
    }
    diags.retain(|d| !file.in_test(d.line) && !file.suppressed(d.line, d.rule));
    diags.sort_by_key(|d| (d.line, d.col));
    diags
}

fn no_panic_in_lib(file: &SourceFile, code: &[&Token], diags: &mut Vec<Diagnostic>) {
    for (i, tok) in code.iter().enumerate() {
        match (tok.kind, tok.text.as_str()) {
            (TokenKind::Ident, "unwrap" | "expect")
                if is_punct(code.get(i.wrapping_sub(1)), ".") && is_punct(code.get(i + 1), "(") =>
            {
                diags.push(file.diag(
                    tok,
                    NO_PANIC_IN_LIB,
                    format!(
                        "`.{}()` can panic; return a typed error or justify with \
                         `// aging-lint: allow(no-panic-in-lib)`",
                        tok.text
                    ),
                ));
            }
            (TokenKind::Ident, "panic" | "todo" | "unimplemented")
                if is_punct(code.get(i + 1), "!") =>
            {
                diags.push(file.diag(
                    tok,
                    NO_PANIC_IN_LIB,
                    format!("`{}!` aborts the caller; return a typed error", tok.text),
                ));
            }
            // Indexing: `[` whose previous token ends an expression —
            // an identifier (non-keyword), `)`, `]`, or a literal.
            // Excludes `#[attr]`, `vec![…]`, slice patterns after
            // keywords, and array-type positions.
            (TokenKind::Punct, "[") if i > 0 => {
                let prev = code[i - 1];
                let indexing = match prev.kind {
                    TokenKind::Ident => !NON_INDEXABLE_KEYWORDS.contains(&prev.text.as_str()),
                    // `#[attr]` and `name![…]` start with `#`/`!`, so
                    // only `)`/`]` before `[` end an indexable
                    // expression among punctuation.
                    TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]"),
                    TokenKind::Str | TokenKind::Num => true,
                    _ => false,
                };
                if indexing {
                    diags.push(
                        file.diag(
                            tok,
                            NO_PANIC_IN_LIB,
                            "slice/array indexing can panic; use `.get()` and handle `None`"
                                .to_string(),
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

fn no_wallclock(file: &SourceFile, code: &[&Token], diags: &mut Vec<Diagnostic>) {
    for (i, tok) in code.iter().enumerate() {
        if tok.kind == TokenKind::Ident
            && matches!(tok.text.as_str(), "SystemTime" | "Instant")
            && is_punct(code.get(i + 1), ":")
            && is_punct(code.get(i + 2), ":")
            && is_ident(code.get(i + 3), "now")
        {
            diags.push(file.diag(
                tok,
                NO_WALLCLOCK,
                format!(
                    "`{}::now()` reads the wall clock; results must not depend on \
                     when they are computed (bench harness code is exempt)",
                    tok.text
                ),
            ));
        }
    }
}

fn no_unordered_iter(file: &SourceFile, code: &[&Token], diags: &mut Vec<Diagnostic>) {
    // `use …;` statements are exempt: importing the type is fine, each
    // construction/annotation site needs a BTreeMap or a justification.
    let mut in_use = false;
    for (i, tok) in code.iter().enumerate() {
        match (tok.kind, tok.text.as_str()) {
            (TokenKind::Ident, "use") if i == 0 || !is_punct(code.get(i.wrapping_sub(1)), ":") => {
                in_use = true;
            }
            (TokenKind::Punct, ";") => in_use = false,
            (TokenKind::Ident, "HashMap" | "HashSet") if !in_use => {
                diags.push(file.diag(
                    tok,
                    NO_UNORDERED_ITER,
                    format!(
                        "`{}` iterates in hash order; use `BTreeMap`/sorted iteration in \
                         output and hashing paths, or justify with \
                         `// aging-lint: allow(no-unordered-iter)`",
                        tok.text
                    ),
                ));
            }
            _ => {}
        }
    }
}

fn no_env_in_core(file: &SourceFile, code: &[&Token], diags: &mut Vec<Diagnostic>) {
    for (i, tok) in code.iter().enumerate() {
        if tok.kind == TokenKind::Ident
            && tok.text == "env"
            && is_punct(code.get(i + 1), ":")
            && is_punct(code.get(i + 2), ":")
            && code.get(i + 3).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            // Either bare `env::x` or `std::env::x`; skip other paths
            // like `my::env::x` only if the head is not `std`.
            if after_path_sep(code, i) && !is_ident(code.get(i.wrapping_sub(3)), "std") {
                continue;
            }
            let what = &code[i + 3].text;
            diags.push(file.diag(
                tok,
                NO_ENV_IN_CORE,
                format!(
                    "`env::{what}` reads ambient process state in library code; \
                     take configuration as an argument (bins are exempt)"
                ),
            ));
        }
    }
}

/// Built-in registry key literals: the first string argument of
/// `register_fn(`, `ModelKey::parse(`, and `endpoint(` calls in
/// non-test code (the serve module's route table is a registry too —
/// `endpoint()` takes the path first for exactly this check).
fn registry_doc_coherence(
    file: &SourceFile,
    code: &[&Token],
    doc: &str,
    diags: &mut Vec<Diagnostic>,
) {
    for i in 0..code.len() {
        let registers = is_ident(code.get(i), "register_fn") && is_punct(code.get(i + 1), "(");
        let routes = is_ident(code.get(i), "endpoint") && is_punct(code.get(i + 1), "(");
        let parses_key = is_ident(code.get(i), "parse")
            && after_path_sep(code, i)
            && is_ident(code.get(i.wrapping_sub(3)), "ModelKey")
            && is_punct(code.get(i + 1), "(");
        let key_tok = if registers || routes || parses_key {
            code.get(i + 2)
        } else {
            None
        };
        let Some(key_tok) = key_tok else { continue };
        if key_tok.kind != TokenKind::Str {
            continue; // key built at runtime; nothing to check
        }
        let key = key_tok.text.trim_matches('"');
        if key.is_empty() {
            continue;
        }
        if !doc.contains(key) {
            diags.push(file.diag(
                key_tok,
                REGISTRY_DOC_COHERENCE,
                format!("registry built-in key `{key}` is not documented in DESIGN.md"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str, rules: &[&'static str]) -> Vec<String> {
        let file = SourceFile::parse(path, src);
        run_rules(
            &file,
            rules,
            Some("documented-key nbti-45nm GET /documented-route"),
        )
        .into_iter()
        .map(|d| d.to_string())
        .collect()
    }

    #[test]
    fn unwrap_flagged_but_not_in_tests_or_strings() {
        let src = r#"
fn f(x: Option<u32>) -> u32 { x.unwrap() }
fn g() -> &'static str { "x.unwrap() in a string" }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
"#;
        let out = run("lib.rs", src, &[NO_PANIC_IN_LIB]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].starts_with("lib.rs:2:33: error[no-panic-in-lib]"),
            "{out:?}"
        );
    }

    #[test]
    fn indexing_flagged_attributes_and_macros_are_not() {
        let src = r#"
#[derive(Debug)]
struct S { v: Vec<u32> }
fn f(s: &S, i: usize) -> u32 { s.v[i] }
fn g() -> Vec<u32> { vec![1, 2] }
fn h(s: &[u32]) -> &[u32] { &s[..1] }
"#;
        let out = run("lib.rs", src, &[NO_PANIC_IN_LIB]);
        assert_eq!(out.len(), 2, "{out:?}"); // s.v[i] and s[..1]
    }

    #[test]
    fn pragma_suppresses_same_and_next_line() {
        let src = "
fn f(x: Option<u32>) -> u32 {
    // aging-lint: allow(no-panic-in-lib) provably Some by construction
    x.unwrap()
}
fn g(x: Option<u32>) -> u32 { x.unwrap() } // aging-lint: allow(no-panic-in-lib) same-line
fn h(x: Option<u32>) -> u32 { x.unwrap() }
";
        let out = run("lib.rs", src, &[NO_PANIC_IN_LIB]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("lib.rs:7:"), "{out:?}");
    }

    #[test]
    fn wallclock_and_env_sequences() {
        let src = "
fn t() -> std::time::Instant { std::time::Instant::now() }
fn e() -> Option<String> { std::env::var(\"HOME\").ok() }
fn not_std(m: &my::env::Reader) {}
";
        assert_eq!(run("lib.rs", src, &[NO_WALLCLOCK]).len(), 1);
        assert_eq!(run("lib.rs", src, &[NO_ENV_IN_CORE]).len(), 1);
    }

    #[test]
    fn hashmap_use_import_exempt_construction_flagged() {
        let src = "
use std::collections::HashMap;
fn f() -> HashMap<u32, u32> { HashMap::new() }
";
        let out = run("lib.rs", src, &[NO_UNORDERED_ITER]);
        assert_eq!(out.len(), 2, "{out:?}"); // return type + constructor
    }

    #[test]
    fn registry_keys_checked_against_doc() {
        let src = r#"
fn builtin(reg: &mut Registry) {
    reg.register_fn("documented-key", "d", |x| x);
    reg.register_fn("missing-key", "d", |x| x);
    let _ = ModelKey::parse("nbti-45nm");
}
"#;
        let out = run("registry.rs", src, &[REGISTRY_DOC_COHERENCE]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("missing-key"), "{out:?}");
    }

    #[test]
    fn endpoint_paths_checked_against_doc() {
        let src = r#"
const ROUTES: [Endpoint; 2] = [
    endpoint("/documented-route", "GET", "fine"),
    endpoint("/orphan-route", "GET", "undocumented"),
];
const fn endpoint(path: &'static str, m: &'static str, h: &'static str) -> Endpoint {
    Endpoint { path, m, h }
}
"#;
        let out = run("serve.rs", src, &[REGISTRY_DOC_COHERENCE]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("/orphan-route"), "{out:?}");
    }

    #[test]
    fn cfg_test_module_fully_excluded() {
        let src = "
#[cfg(all(test, not(miri)))]
mod tests {
    use std::collections::HashMap;
    fn helper() -> HashMap<u32, u32> { HashMap::new() }
}
fn live() { let _ = std::env::var(\"X\"); }
";
        assert!(run("lib.rs", src, &[NO_UNORDERED_ITER]).is_empty());
        assert_eq!(run("lib.rs", src, &[NO_ENV_IN_CORE]).len(), 1);
    }
}
