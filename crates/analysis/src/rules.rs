//! The six determinism/soundness rules `ppfr_lint` enforces, over the
//! token streams produced by [`crate::lexer`].
//!
//! | rule | requirement |
//! |------|-------------|
//! | `twin-kernel` | every fn calling a `par_*` primitive is exercised by a test under `with_forced_threads` |
//! | `nondet-iteration` | no `HashMap`/`HashSet` in files that serialize reports (iteration order would leak into artifacts) |
//! | `wall-clock` | no `std::thread::spawn` / `Instant` / `SystemTime` outside `crates/telemetry`, `vendor/rayon` and `crates/bench` |
//! | `undocumented-unsafe` | every `unsafe` is preceded by a `SAFETY:` (or `# Safety`) comment |
//! | `par-float-reduction` | float reductions inside parallel kernels only in the blessed allowlist (each blessed kernel has a bit-identity test) |
//! | `uncalled-pub` | every `pub fn` in `crates/*/src` is named by non-test code: crate sources, examples or `perfbench/` |
//!
//! Test code is every item under a `#[cfg(test)]` attribute (the test
//! module, or a test-only helper anywhere in the file) plus `#[test]` fns;
//! no rule treats it as production code.
//!
//! Any finding can be suppressed in place with a justified escape hatch on
//! the line above it:
//!
//! ```text
//! // lint: allow(wall-clock) — coarse perf guard only, never in artifacts
//! ```
//!
//! The justification text is mandatory; an allow without one is ignored.

use crate::lexer::{tokenize, TokKind, Token};
use std::collections::BTreeSet;
use std::ops::Range;

/// The rule identifiers, in the order they are documented.
pub const RULES: [&str; 6] = [
    "twin-kernel",
    "nondet-iteration",
    "wall-clock",
    "undocumented-unsafe",
    "par-float-reduction",
    "uncalled-pub",
];

/// The pool-dispatching primitives of `ppfr_linalg::parallel`; calling one
/// makes a fn a "parallel kernel" for `twin-kernel`/`par-float-reduction`.
const PAR_PRIMITIVES: [&str; 5] = [
    "par_chunks",
    "par_row_blocks",
    "par_fill",
    "par_rows",
    "par_join",
];

/// Kernels blessed to reduce floats inside their parallel closures: each is
/// pinned bit-identical across forced thread counts, and the GEMM/SpMM ones
/// against a scalar oracle too (see `crates/linalg/tests/kernel_properties.rs`
/// and the in-module tests), so the reduction order is fixed by construction
/// — per-row/per-block serial loops, never a cross-chunk accumulator.
const BLESSED_KERNELS: [&str; 9] = [
    "matmul",
    "matmul_into",
    "matmul_at_b",
    "matmul_at_b_into",
    "matmul_a_bt",
    "matmul_a_bt_into",
    "matmul_dense",
    "matmul_dense_into",
    // Row-local `.sum()` inside the per-row closure; pinned across thread
    // counts in crates/linalg/tests/kernel_properties.rs.
    "row_softmax_backward_into",
];

/// Identifiers that mark a file as a serialization site for
/// `nondet-iteration`: reports and JSON artifacts must not depend on hash
/// iteration order.
const SERIALIZATION_MARKS: [&str; 3] = ["MatrixReport", "to_json", "Serialize"];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: String,
    pub message: String,
}

/// One `// lint: allow(rule) — justification` escape hatch.
struct Allow {
    line: usize,
    rule: String,
}

/// A fn item: its name, position, and body token range.
struct FnDef {
    name: String,
    file: usize,
    line: usize,
    is_pub: bool,
    is_test: bool,
    /// Token-index range of the `{ ... }` body (empty for bodyless decls).
    body: Range<usize>,
}

struct SourceFile {
    path: String,
    tokens: Vec<Token>,
    /// Token ranges of the `#[cfg(test)]` items: test-only code.
    test_ranges: Vec<Range<usize>>,
    allows: Vec<Allow>,
}

impl SourceFile {
    fn is_test(&self, tok: usize) -> bool {
        self.test_ranges.iter().any(|r| r.contains(&tok))
    }
}

/// All scanned files plus the cross-file indexes the rules need.
#[derive(Default)]
pub struct Workspace {
    files: Vec<SourceFile>,
    fns: Vec<FnDef>,
    /// Identifiers the caller-only files name, for `uncalled-pub`.
    caller_idents: BTreeSet<String>,
    caller_files: usize,
}

impl Workspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one file.  `path` must be repo-relative with forward
    /// slashes (`crates/linalg/src/ops.rs`): rule scoping matches on it.
    pub fn add_file(&mut self, path: &str, source: &str) {
        let tokens = tokenize(source);
        let test_ranges = test_ranges(&tokens);
        let allows = extract_allows(&tokens);
        let file_idx = self.files.len();
        self.fns.extend(extract_fns(&tokens, file_idx));
        self.files.push(SourceFile {
            path: path.to_string(),
            tokens,
            test_ranges,
            allows,
        });
    }

    /// Registers a file that no rule checks but whose identifiers count as
    /// callers for `uncalled-pub`: examples and `perfbench/`.  Its test code
    /// counts too under `perfbench/`, whose self-test must keep building.
    pub fn add_caller_file(&mut self, path: &str, source: &str) {
        let tokens = tokenize(source);
        let tests = if path.starts_with("perfbench/") {
            Vec::new()
        } else {
            test_ranges(&tokens)
        };
        self.caller_idents
            .extend(naming_idents(&tokens, &tests).map(str::to_string));
        self.caller_files += 1;
    }

    pub fn files_scanned(&self) -> usize {
        self.files.len() + self.caller_files
    }

    /// Runs every rule and returns the unsuppressed findings, sorted by
    /// (file, line, rule) so output is reproducible.
    pub fn run(&self) -> Vec<Violation> {
        let mut all = Vec::new();
        all.extend(self.check_twin_kernel());
        all.extend(self.check_nondet_iteration());
        all.extend(self.check_wall_clock());
        all.extend(self.check_undocumented_unsafe());
        all.extend(self.check_par_float_reduction());
        all.extend(self.check_uncalled_pub());
        all.retain(|v| !self.suppressed(v));
        all.sort();
        all.dedup();
        all
    }

    /// A violation is suppressed by a justified allow for the same rule in
    /// the same file within the three lines above it (or on its own line).
    fn suppressed(&self, v: &Violation) -> bool {
        let file = self
            .files
            .iter()
            .find(|f| f.path == v.file)
            .expect("violation points at a scanned file");
        file.allows
            .iter()
            .any(|a| a.rule == v.rule && v.line >= a.line && v.line <= a.line + 3)
    }

    fn is_crate_src(path: &str) -> bool {
        path.starts_with("crates/") && path.contains("/src/")
    }

    // ---- rule: twin-kernel -------------------------------------------------

    fn check_twin_kernel(&self) -> Vec<Violation> {
        // The identifier sets of the tests that force a thread count (a test
        // "references" a kernel if the kernel's name appears anywhere in its
        // body).
        let forced_tests: Vec<BTreeSet<&str>> = self
            .fns
            .iter()
            .filter(|f| f.is_test)
            .map(|f| {
                self.files[f.file].tokens[f.body.clone()]
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.as_str())
                    .collect::<BTreeSet<&str>>()
            })
            .filter(|idents| idents.contains("with_forced_threads"))
            .collect();
        let mut out = Vec::new();
        for f in &self.fns {
            let file = &self.files[f.file];
            if !Self::is_crate_src(&file.path)
                || f.is_test
                || file.is_test(f.body.start)
                || PAR_PRIMITIVES.contains(&f.name.as_str())
            {
                continue;
            }
            let calls_par = file.tokens[f.body.clone()]
                .iter()
                .any(|t| t.kind == TokKind::Ident && PAR_PRIMITIVES.contains(&t.text.as_str()));
            if !calls_par {
                continue;
            }
            if !forced_tests.iter().any(|t| t.contains(f.name.as_str())) {
                out.push(Violation {
                    file: file.path.clone(),
                    line: f.line,
                    rule: "twin-kernel".into(),
                    message: format!(
                        "parallel kernel `{}` has no `with_forced_threads` test \
                         referencing it",
                        f.name
                    ),
                });
            }
        }
        // The primitives themselves: each pub par_* in ppfr_linalg::parallel
        // must be pinned bit-identical across thread counts by some test.
        for f in &self.fns {
            let file = &self.files[f.file];
            if file.path != "crates/linalg/src/parallel.rs"
                || !f.is_pub
                || !PAR_PRIMITIVES.contains(&f.name.as_str())
            {
                continue;
            }
            let mut tests_with_forced = self.fns.iter().filter(|t| t.is_test).filter(|t| {
                let tf = &self.files[t.file];
                let idents: BTreeSet<&str> = tf.tokens[t.body.clone()]
                    .iter()
                    .filter(|tok| tok.kind == TokKind::Ident)
                    .map(|tok| tok.text.as_str())
                    .collect();
                idents.contains("with_forced_threads") && idents.contains(f.name.as_str())
            });
            if tests_with_forced.next().is_none() {
                out.push(Violation {
                    file: file.path.clone(),
                    line: f.line,
                    rule: "twin-kernel".into(),
                    message: format!(
                        "pool primitive `{}` has no test pinning it across thread \
                         counts via `with_forced_threads`",
                        f.name
                    ),
                });
            }
        }
        out
    }

    // ---- rule: nondet-iteration -------------------------------------------

    fn check_nondet_iteration(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for file in &self.files {
            if !Self::is_crate_src(&file.path) {
                continue;
            }
            let code = || {
                file.tokens
                    .iter()
                    .enumerate()
                    .filter(|&(i, t)| t.kind == TokKind::Ident && !file.is_test(i))
                    .map(|(_, t)| t)
            };
            if !code().any(|t| SERIALIZATION_MARKS.contains(&t.text.as_str())) {
                continue;
            }
            for t in code() {
                if t.text == "HashMap" || t.text == "HashSet" {
                    out.push(Violation {
                        file: file.path.clone(),
                        line: t.line,
                        rule: "nondet-iteration".into(),
                        message: format!(
                            "`{}` in a file that serializes reports: iteration order is \
                             nondeterministic, use BTreeMap/BTreeSet or an index-keyed Vec",
                            t.text
                        ),
                    });
                }
            }
        }
        out
    }

    // ---- rule: wall-clock --------------------------------------------------

    fn check_wall_clock(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for file in &self.files {
            if !file.path.starts_with("crates/")
                || file.path.starts_with("crates/bench/")
                || file.path.starts_with("crates/telemetry/")
            {
                continue;
            }
            let toks = &file.tokens;
            for (i, t) in toks.iter().enumerate() {
                if t.kind != TokKind::Ident {
                    continue;
                }
                let flagged = match t.text.as_str() {
                    "Instant" | "SystemTime" => true,
                    // `thread::spawn` counts only when the path roots in std
                    // (or is bare); `loom_lite::thread::spawn` etc. is the
                    // model checker's virtual spawn, which is the point.
                    "spawn" => {
                        code_tok(toks, i, -1).is_some_and(|p| p.text == ":")
                            && code_tok(toks, i, -3).is_some_and(|p| p.text == "thread")
                            && match code_tok(toks, i, -4) {
                                Some(p) if p.text == ":" => {
                                    code_tok(toks, i, -6).is_some_and(|p| p.text == "std")
                                }
                                _ => true,
                            }
                    }
                    _ => false,
                };
                if flagged {
                    out.push(Violation {
                        file: file.path.clone(),
                        line: t.line,
                        rule: "wall-clock".into(),
                        message: format!(
                            "`{}` outside ppfr_telemetry, vendor/rayon and crates/bench: \
                             wall-clock and ad-hoc threads make runs unreproducible — time \
                             things through `ppfr_telemetry` instead",
                            t.text
                        ),
                    });
                }
            }
        }
        out
    }

    // ---- rule: undocumented-unsafe ----------------------------------------

    fn check_undocumented_unsafe(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for file in &self.files {
            for (i, t) in file.tokens.iter().enumerate() {
                if t.kind != TokKind::Ident || t.text != "unsafe" {
                    continue;
                }
                // `forbid(unsafe_code)` style mentions lex as `unsafe_code`,
                // a different ident, so every remaining `unsafe` is real.
                let documented = file.tokens[..i]
                    .iter()
                    .rev()
                    .take_while(|c| c.line + 8 >= t.line)
                    .any(|c| {
                        c.kind == TokKind::Comment
                            && (c.text.contains("SAFETY:") || c.text.contains("# Safety"))
                    });
                if !documented {
                    out.push(Violation {
                        file: file.path.clone(),
                        line: t.line,
                        rule: "undocumented-unsafe".into(),
                        message: "`unsafe` without a `// SAFETY:` (or `# Safety` doc) comment \
                                  in the preceding lines"
                            .into(),
                    });
                }
            }
        }
        out
    }

    // ---- rule: par-float-reduction ----------------------------------------

    fn check_par_float_reduction(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for f in &self.fns {
            let file = &self.files[f.file];
            if !Self::is_crate_src(&file.path)
                || f.is_test
                || file.is_test(f.body.start)
                || BLESSED_KERNELS.contains(&f.name.as_str())
            {
                continue;
            }
            let body = &file.tokens[f.body.clone()];
            let calls_par = body
                .iter()
                .any(|t| t.kind == TokKind::Ident && PAR_PRIMITIVES.contains(&t.text.as_str()));
            if !calls_par {
                continue;
            }
            let reduction_at = body.windows(2).find_map(|w| {
                let plus_eq = w[0].kind == TokKind::Punct
                    && w[0].text == "+"
                    && w[1].kind == TokKind::Punct
                    && w[1].text == "="
                    && w[0].line == w[1].line;
                let method = w[0].kind == TokKind::Punct
                    && w[0].text == "."
                    && w[1].kind == TokKind::Ident
                    && (w[1].text == "sum" || w[1].text == "fold");
                (plus_eq || method).then_some(w[1].line)
            });
            if let Some(line) = reduction_at {
                out.push(Violation {
                    file: file.path.clone(),
                    line,
                    rule: "par-float-reduction".into(),
                    message: format!(
                        "accumulation (`+=`/`.sum`/`.fold`) inside parallel kernel `{}` \
                         which is not in the blessed allowlist; reduction order must be \
                         pinned by a forced-thread bit-identity test before blessing",
                        f.name
                    ),
                });
            }
        }
        out
    }

    // ---- rule: uncalled-pub -----------------------------------------------

    fn check_uncalled_pub(&self) -> Vec<Violation> {
        // Matching is by name token, so a collision can only hide a finding.
        let mut named: BTreeSet<&str> = self.caller_idents.iter().map(String::as_str).collect();
        for file in self.files.iter().filter(|f| Self::is_crate_src(&f.path)) {
            named.extend(naming_idents(&file.tokens, &file.test_ranges));
        }
        self.fns
            .iter()
            .filter(|f| {
                let file = &self.files[f.file];
                f.is_pub
                    && Self::is_crate_src(&file.path)
                    && !file.is_test(f.body.start)
                    && !named.contains(f.name.as_str())
            })
            .map(|f| Violation {
                file: self.files[f.file].path.clone(),
                line: f.line,
                rule: "uncalled-pub".into(),
                message: format!(
                    "`pub fn {}` is named by no non-test code in crates/*/src, examples \
                     or perfbench: delete it, or move a test-only helper under \
                     `#[cfg(test)]`",
                    f.name
                ),
            })
            .collect()
    }
}

/// The token `steps` code tokens away from `i` (negative = backwards),
/// skipping comments.
fn code_tok(toks: &[Token], i: usize, steps: isize) -> Option<&Token> {
    let mut remaining = steps.unsigned_abs();
    let mut j = i;
    while remaining > 0 {
        loop {
            j = if steps < 0 { j.checked_sub(1)? } else { j + 1 };
            if toks.get(j)?.kind != TokKind::Comment {
                break;
            }
        }
        remaining -= 1;
    }
    toks.get(j)
}

/// Token ranges of the items under a `#[cfg(test)]` attribute: each runs
/// from the attribute to the item's `;` or the `}` closing its body.
fn test_ranges(toks: &[Token]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    for (at, w) in toks.windows(5).enumerate() {
        let text = |k: usize| w[k].text.as_str();
        if (text(0), text(1), text(2), text(3), text(4)) != ("cfg", "(", "test", ")", "]") {
            continue;
        }
        let mut depth = 0usize;
        let mut end = toks.len();
        for (j, t) in toks.iter().enumerate().skip(at + 5) {
            if t.kind != TokKind::Punct {
                continue;
            }
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth == 0 => {
                    // The attribute sat on a field or arm: the rest of its
                    // group counts as test code.
                    end = j;
                    break;
                }
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 && t.text == "}" {
                        end = j + 1;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    end = j + 1;
                    break;
                }
                _ => {}
            }
        }
        out.push(at..end);
    }
    out
}

/// The identifiers a file names outside its test code, `use` items and the
/// name after each `fn` (a definition names nothing).
fn naming_idents<'a>(
    toks: &'a [Token],
    test_ranges: &'a [Range<usize>],
) -> impl Iterator<Item = &'a str> + 'a {
    let mut in_use = false;
    toks.iter().enumerate().filter_map(move |(i, t)| {
        if in_use || (t.kind == TokKind::Ident && t.text == "use") {
            in_use = t.text != ";";
            return None;
        }
        let defines = i > 0 && toks[i - 1].kind == TokKind::Ident && toks[i - 1].text == "fn";
        (t.kind == TokKind::Ident && !defines && !test_ranges.iter().any(|r| r.contains(&i)))
            .then_some(t.text.as_str())
    })
}

/// Parses every justified `lint: allow(<rule>)` comment.
fn extract_allows(toks: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in toks {
        if t.kind != TokKind::Comment {
            continue;
        }
        let Some(at) = t.text.find("lint: allow(") else {
            continue;
        };
        let rest = &t.text[at + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = &rest[..close];
        let justification = rest[close + 1..]
            .trim_start_matches([' ', '\t', '—', '–', '-', ':'])
            .trim();
        if RULES.contains(&rule) && justification.len() >= 3 {
            out.push(Allow {
                line: t.line,
                rule: rule.to_string(),
            });
        }
    }
    out
}

/// Extracts every `fn` item with its body token range.
fn extract_fns(toks: &[Token], file_idx: usize) -> Vec<FnDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_fn_kw = toks[i].kind == TokKind::Ident && toks[i].text == "fn";
        let name_next = toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident);
        if !(is_fn_kw && name_next) {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let line = toks[i].line;
        // Look back over qualifiers and attributes for `pub` / `#[test]`;
        // `pub(crate)` and the like do not make a fn public.
        let back_start = i.saturating_sub(12);
        let back = &toks[back_start..i];
        let item_start = back
            .iter()
            .rposition(|t| t.kind == TokKind::Punct && matches!(t.text.as_str(), "{" | "}" | ";"))
            .map_or(back_start, |p| back_start + p + 1);
        let is_pub = toks[item_start..=i]
            .windows(2)
            .any(|w| w[0].kind == TokKind::Ident && w[0].text == "pub" && w[1].text != "(");
        let is_test = back
            .windows(3)
            .any(|w| w[0].text == "#" && w[1].text == "[" && w[2].text == "test");
        // The body is the first brace-balanced `{...}` before any `;` at
        // signature level (a `;` first means a bodyless trait/extern decl).
        let mut j = i + 2;
        let mut body = 0..0;
        while let Some(t) = toks.get(j) {
            if t.kind == TokKind::Punct && t.text == ";" {
                break;
            }
            if t.kind == TokKind::Punct && t.text == "{" {
                let mut depth = 1usize;
                let start = j + 1;
                j += 1;
                while let Some(t) = toks.get(j) {
                    if t.kind == TokKind::Punct && t.text == "{" {
                        depth += 1;
                    } else if t.kind == TokKind::Punct && t.text == "}" {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                body = start..j.min(toks.len());
                break;
            }
            j += 1;
        }
        out.push(FnDef {
            name,
            file: file_idx,
            line,
            is_pub,
            is_test,
            body,
        });
        i += 2;
    }
    out
}
