//! The project-invariant rules, the allow-directive machinery, and the
//! two-phase lint driver.
//!
//! Every rule walks the comment-free code token stream from
//! [`crate::lexer`]; comments are consulted only for
//! `// simlint: allow(<rule>, ...)` directives. Diagnostics carry
//! 1-based `line:col` spans and a stable rule id, and deny by default:
//! any diagnostic fails the build.
//!
//! v2 runs in two phases. [`Linter::lint_file`] lexes, parses
//! ([`crate::ast`]), and applies the *local* rules, storing the file's
//! facts; [`Linter::finish`] then builds the workspace call graph
//! ([`crate::graph`]) and runs the *transitive* analyses — annotation
//! propagation (`hot_path` and `pure_model` findings in any function
//! reachable from an annotated one, with the
//! propagation chain printed), [`crate::locks`] lock ordering, and
//! `fork-escape` — before applying allow directives and flagging the
//! unused ones. `serve_loop` is deliberately *not* propagated: its
//! bounded-growth check keys off identifiers visible in the annotated
//! fn's own body, and the session loops already confine peer input
//! handling to the annotated fns.

use crate::ast::{parse_fields, parse_fns, FieldDef, ParsedFn};
use crate::forks::ForkRegistry;
use crate::graph::{Callee, FileView, Graph};
use crate::lexer::{lex, Token, TokenKind};
use crate::locks::{self, LockRegistry};
use std::collections::BTreeMap;

/// `HashMap`/`HashSet` with the default `RandomState`: iteration order is
/// randomized per process and can leak into event ordering or output.
pub const RULE_NONDET_ITER: &str = "nondeterministic-iteration";
/// `std::time::Instant` / `SystemTime` reads: wall-clock time must never
/// influence simulation state.
pub const RULE_WALL_CLOCK: &str = "wall-clock";
/// Literal `fork(N)` streams must be registered in `FORKS.md` and unique
/// per crate, so new subsystems cannot collide with existing RNG streams.
pub const RULE_FORK: &str = "rng-fork-discipline";
/// Functions annotated `#[cfg_attr(simlint, hot_path)]` — and every
/// workspace function reachable from one — must not contain allocating
/// constructs.
pub const RULE_HOT_PATH: &str = "hot-path-alloc";
/// Functions annotated `#[cfg_attr(simlint, pure_model)]` — and every
/// workspace function reachable from one — must not draw RNG, touch the
/// event queue, or mutate the `Medium`: every effect belongs to the
/// dispatcher, so recorded traces replay through the pure models alone.
pub const RULE_PURE_MODEL: &str = "pure-model-effect";
/// Types deriving `Ord`/`PartialOrd` (candidate event-queue keys) must
/// not contain `f32`/`f64` fields.
pub const RULE_FLOAT_KEY: &str = "float-event-key";
/// Mutex/RwLock acquisition order: derived acquired-while-held edges
/// must be acyclic and respect the ranks declared in `LOCKS.md`.
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// A `let`-bound literal `fork(N)` RNG handle passed to a call that
/// resolves to no workspace function: the stream leaves analyzed code
/// and its draw discipline can no longer be checked.
pub const RULE_FORK_ESCAPE: &str = "fork-escape";
/// A `simlint: allow(...)` directive naming a rule that does not exist.
pub const RULE_UNKNOWN: &str = "unknown-rule";
/// An allow directive that suppressed nothing: stale allows hide future
/// regressions and must be deleted (this rule cannot itself be allowed).
pub const RULE_UNUSED_ALLOW: &str = "unused-allow";
/// Functions annotated `#[cfg_attr(simlint, serve_loop)]` sit on the
/// campaign server's session path, where the peer controls the input:
/// no whole-stream slurps (`read_to_end`/`read_to_string`), no buffer
/// growth without a visible bound (`MAX_*`/capacity mention in the fn),
/// and no wall-clock reads — session behavior must be a function of the
/// protocol bytes alone.
pub const RULE_SERVE_LOOP: &str = "serve-loop-block";

/// All rule ids, in diagnostic-documentation order.
pub const ALL_RULES: &[&str] = &[
    RULE_NONDET_ITER,
    RULE_WALL_CLOCK,
    RULE_FORK,
    RULE_HOT_PATH,
    RULE_PURE_MODEL,
    RULE_FLOAT_KEY,
    RULE_SERVE_LOOP,
    RULE_LOCK_ORDER,
    RULE_FORK_ESCAPE,
    RULE_UNUSED_ALLOW,
    RULE_UNKNOWN,
];

/// Markers whose rules propagate through the call graph.
const PROPAGATED_MARKERS: &[&str] = &["hot_path", "pure_model"];

/// Crates whose state feeds event scheduling or report output; the
/// iteration and float-key rules apply only here.
pub const SIM_CRATES: &[&str] = &["sim-engine", "phy", "mac", "net", "core", "scenario"];

/// Crates that legitimately read the wall clock (benchmarks and the test
/// harness measure real elapsed time).
pub const WALL_CLOCK_EXEMPT: &[&str] = &["bench", "testkit"];

/// One finding, printable as `file:line:col: error[rule]: message`, with
/// the propagation chain appended when the finding was reached through
/// the call graph: `... (via core::world::advance → phy::medium::deliver)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Path as given to the linter (workspace-relative in `--workspace`).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (characters).
    pub col: u32,
    /// Stable rule id from [`ALL_RULES`].
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Call path from the annotated root to the function containing the
    /// finding (`crate::file::fn` displays); empty for direct findings.
    pub chain: Vec<String>,
}

impl Diagnostic {
    fn new(file: &str, tok: &Token, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line: tok.line,
            col: tok.col,
            rule,
            message,
            chain: Vec::new(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.file, self.line, self.col, self.rule, self.message
        )?;
        if !self.chain.is_empty() {
            write!(f, " (via {})", self.chain.join(" → "))?;
        }
        Ok(())
    }
}

/// Which rule set applies to a file.
#[derive(Debug, Clone)]
pub struct CrateContext {
    /// Crate directory name (`core`, `phy`, ...), `main` for the root
    /// crate, `fixture` for explicitly listed files.
    pub name: String,
    /// Subject to [`RULE_NONDET_ITER`] and [`RULE_FLOAT_KEY`].
    pub sim: bool,
    /// Exempt from [`RULE_WALL_CLOCK`].
    pub wall_clock_exempt: bool,
    /// Integration test / bench / example target: fork and float-key
    /// discipline does not apply (tests probe arbitrary streams).
    pub test_target: bool,
}

impl CrateContext {
    /// Context for a workspace-relative path.
    pub fn for_workspace_path(rel: &str) -> CrateContext {
        let parts: Vec<&str> = rel.split('/').collect();
        let (name, rest) = if parts.len() >= 3 && parts[0] == "crates" {
            (parts[1].to_string(), parts[2])
        } else {
            ("main".to_string(), parts.first().copied().unwrap_or(""))
        };
        let test_target = matches!(rest, "tests" | "benches" | "examples");
        CrateContext {
            sim: SIM_CRATES.contains(&name.as_str()),
            wall_clock_exempt: WALL_CLOCK_EXEMPT.contains(&name.as_str()),
            name,
            test_target,
        }
    }

    /// Context for an explicitly listed file (fixtures): every rule is
    /// active so the corpus can exercise the full rule set.
    pub fn fixture() -> CrateContext {
        CrateContext {
            name: "fixture".to_string(),
            sim: true,
            wall_clock_exempt: false,
            test_target: false,
        }
    }
}

/// An `allow` budget from one directive comment.
struct Allow {
    rule: &'static str,
    line: u32,
    col: u32,
    used: bool,
}

/// Everything [`Linter::finish`] needs from one linted file.
struct FileFacts {
    label: String,
    ctx: CrateContext,
    stem: String,
    code: Vec<Token>,
    fns: Vec<ParsedFn>,
    fields: Vec<FieldDef>,
    allows: Vec<Allow>,
    /// Local-rule diagnostics, suppression not yet applied.
    raw: Vec<Diagnostic>,
}

/// Cross-file lint state: the registries, every file's parsed facts, and
/// — after [`Linter::finish`] — the final diagnostics.
pub struct Linter {
    forks: ForkRegistry,
    locks: LockRegistry,
    /// `(crate, stream) -> (file, line)` of the first literal call site.
    fork_sites: BTreeMap<(String, u64), (String, u32)>,
    files: Vec<FileFacts>,
    /// Unknown-rule directives; never suppressible.
    unknown: Vec<Diagnostic>,
    /// Findings across all files, final after [`Linter::finish`].
    pub diagnostics: Vec<Diagnostic>,
}

impl Linter {
    /// A linter enforcing against the given fork and lock registries.
    pub fn new(forks: ForkRegistry, locks: LockRegistry) -> Linter {
        Linter {
            forks,
            locks,
            fork_sites: BTreeMap::new(),
            files: Vec::new(),
            unknown: Vec::new(),
            diagnostics: Vec::new(),
        }
    }

    /// Phase one: lints one file's local rules and stores its facts for
    /// the cross-file phase.
    pub fn lint_file(&mut self, file: &str, source: &str, ctx: &CrateContext) {
        let tokens = lex(source);
        let (allows, unknown_diags) = parse_directives(file, &tokens);
        self.unknown.extend(unknown_diags);
        let code: Vec<Token> = tokens
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .collect();
        let fns = parse_fns(&code);
        let fields = parse_fields(&code);
        let test_ranges = cfg_test_ranges(&code);
        let in_test = |i: usize| test_ranges.iter().any(|&(lo, hi)| lo <= i && i <= hi);

        let mut raw: Vec<Diagnostic> = Vec::new();
        if ctx.sim {
            rule_nondet_iteration(file, &code, &mut raw);
        }
        if !ctx.wall_clock_exempt {
            rule_wall_clock(file, &code, &mut raw);
        }
        if !ctx.test_target {
            self.rule_fork_discipline(file, &code, ctx, &in_test, &mut raw);
        }
        for f in &fns {
            let Some((start, end)) = f.body else {
                continue;
            };
            for marker in &f.markers {
                match marker.as_str() {
                    "hot_path" => {
                        for (i, construct) in alloc_findings(&code, start, end) {
                            raw.push(Diagnostic::new(
                                file,
                                &code[i],
                                RULE_HOT_PATH,
                                format!(
                                    "allocating construct `{construct}` inside hot-path fn \
                                     `{}` (banned: {})",
                                    f.name,
                                    ALLOC_CONSTRUCTS.join(", ")
                                ),
                            ));
                        }
                    }
                    "pure_model" => {
                        for (i, what) in effect_findings(&code, start, end) {
                            raw.push(Diagnostic::new(
                                file,
                                &code[i],
                                RULE_PURE_MODEL,
                                format!(
                                    "`.{}(...)` is {what} inside pure-model fn `{}`; \
                                     every effect must flow through the dispatcher so recorded \
                                     traces replay through the pure models alone",
                                    code[i].text, f.name
                                ),
                            ));
                        }
                    }
                    "serve_loop" => {
                        rule_serve_loop_block(file, &code, start, end, &f.name, &mut raw);
                    }
                    _ => {}
                }
            }
        }
        if ctx.sim && !ctx.test_target {
            rule_float_event_key(file, &code, &in_test, &mut raw);
        }

        self.files.push(FileFacts {
            label: file.to_string(),
            ctx: ctx.clone(),
            stem: file
                .rsplit('/')
                .next()
                .unwrap_or(file)
                .trim_end_matches(".rs")
                .to_string(),
            code,
            fns,
            fields,
            allows,
            raw,
        });
    }

    /// Phase two: builds the workspace call graph, runs the transitive
    /// analyses, applies allow directives, and flags unused ones.
    /// Duplicate registry rows always fail; in `check_stale` mode (the
    /// `--workspace` sweep) registered fork streams with no call site
    /// and unregistered/stale locks fail too, so the tables cannot rot.
    pub fn finish(&mut self, check_stale: bool) {
        let mut all: Vec<Diagnostic> = Vec::new();
        {
            let views: Vec<FileView<'_>> = self
                .files
                .iter()
                .map(|f| FileView {
                    code: &f.code,
                    fns: &f.fns,
                    fields: &f.fields,
                    file: &f.label,
                    krate: &f.ctx.name,
                    stem: &f.stem,
                    test_target: f.ctx.test_target,
                })
                .collect();
            let graph = Graph::build(&views);
            for marker in PROPAGATED_MARKERS {
                let roots = graph.roots(marker);
                if roots.is_empty() {
                    continue;
                }
                for (node, chain) in graph.propagate(marker, &roots) {
                    all.extend(propagated_diags(&graph, marker, node, &chain));
                }
            }
            all.extend(locks::check(&graph, &self.locks, check_stale));
            all.extend(rule_fork_escape(&graph));
        }
        for f in &mut self.files {
            all.append(&mut f.raw);
        }
        for (line, krate, stream) in std::mem::take(&mut self.forks.duplicates) {
            all.push(Diagnostic {
                file: self.forks.path.clone(),
                line,
                col: 1,
                rule: RULE_FORK,
                message: format!("duplicate registry row for fork({stream}) in crate `{krate}`"),
                chain: Vec::new(),
            });
        }
        if check_stale {
            for ((krate, stream), entry) in self.forks.iter() {
                if !self.fork_sites.contains_key(&(krate.clone(), *stream)) {
                    all.push(Diagnostic {
                        file: self.forks.path.clone(),
                        line: entry.line,
                        col: 1,
                        rule: RULE_FORK,
                        message: format!(
                            "registered fork({stream}) for crate `{krate}` \
                             (\"{}\") has no literal call site; remove the row",
                            entry.purpose
                        ),
                        chain: Vec::new(),
                    });
                }
            }
        }
        all.sort();
        // A directive suppresses exactly one diagnostic of its rule, on
        // the directive's own line or the line directly below it —
        // including transitive findings reported at that line. The
        // meta-rules (`unknown-rule`, `unused-allow`) cannot be allowed.
        let files = &mut self.files;
        all.retain(|diag| {
            if diag.rule == RULE_UNKNOWN || diag.rule == RULE_UNUSED_ALLOW {
                return true;
            }
            for f in files.iter_mut() {
                if f.label != diag.file {
                    continue;
                }
                for allow in f.allows.iter_mut() {
                    if !allow.used
                        && allow.rule == diag.rule
                        && (allow.line == diag.line || allow.line + 1 == diag.line)
                    {
                        allow.used = true;
                        return false;
                    }
                }
            }
            true
        });
        for f in &self.files {
            for allow in &f.allows {
                if !allow.used {
                    all.push(Diagnostic {
                        file: f.label.clone(),
                        line: allow.line,
                        col: allow.col,
                        rule: RULE_UNUSED_ALLOW,
                        message: format!(
                            "allow({rule}) suppresses nothing: no `{rule}` diagnostic \
                             fires on this line or the next — delete the directive",
                            rule = allow.rule
                        ),
                        chain: Vec::new(),
                    });
                }
            }
        }
        all.append(&mut self.unknown);
        all.sort();
        self.diagnostics = all;
    }

    fn rule_fork_discipline(
        &mut self,
        file: &str,
        code: &[Token],
        ctx: &CrateContext,
        in_test: &dyn Fn(usize) -> bool,
        raw: &mut Vec<Diagnostic>,
    ) {
        for i in 0..code.len() {
            if !(code[i].kind == TokenKind::Ident && code[i].text == "fork") {
                continue;
            }
            if in_test(i) {
                continue;
            }
            let Some(stream) = fork_literal_arg(code, i) else {
                continue;
            };
            let tok = &code[i];
            let key = (ctx.name.clone(), stream);
            if self.forks.get(&ctx.name, stream).is_none() {
                raw.push(Diagnostic::new(
                    file,
                    tok,
                    RULE_FORK,
                    format!(
                        "fork({stream}) in crate `{}` is not registered in {}",
                        ctx.name,
                        if self.forks.path.is_empty() {
                            "the fork registry (pass --forks FORKS.md)"
                        } else {
                            &self.forks.path
                        }
                    ),
                ));
            } else if let Some((first_file, first_line)) = self.fork_sites.get(&key) {
                raw.push(Diagnostic::new(
                    file,
                    tok,
                    RULE_FORK,
                    format!(
                        "fork({stream}) collides with the stream already drawn at \
                         {first_file}:{first_line} in crate `{}`",
                        ctx.name
                    ),
                ));
            }
            self.fork_sites
                .entry(key)
                .or_insert_with(|| (file.to_string(), tok.line));
        }
    }
}

/// Findings for one function reached through the call graph; the message
/// names the annotated root, and the chain prints the call path.
fn propagated_diags(
    graph: &Graph<'_>,
    marker: &str,
    node: crate::graph::NodeId,
    chain: &[crate::graph::NodeId],
) -> Vec<Diagnostic> {
    let fv = &graph.files[node.0];
    let f = &fv.fns[node.1];
    let Some((start, end)) = f.body else {
        return Vec::new();
    };
    let chain_disp: Vec<String> = chain.iter().map(|n| graph.display(*n)).collect();
    let root = chain_disp[0].clone();
    let code = fv.code;
    let mut out = Vec::new();
    let mut push = |i: usize, rule: &'static str, message: String| {
        out.push(Diagnostic {
            file: fv.file.to_string(),
            line: code[i].line,
            col: code[i].col,
            rule,
            message,
            chain: chain_disp.clone(),
        });
    };
    match marker {
        "hot_path" => {
            for (i, construct) in alloc_findings(code, start, end) {
                push(
                    i,
                    RULE_HOT_PATH,
                    format!(
                        "allocating construct `{construct}` in `{}`, reachable from \
                         hot-path fn `{root}` (banned: {})",
                        f.name,
                        ALLOC_CONSTRUCTS.join(", ")
                    ),
                );
            }
        }
        "pure_model" => {
            for (i, what) in effect_findings(code, start, end) {
                push(
                    i,
                    RULE_PURE_MODEL,
                    format!(
                        "`.{}(...)` is {what} in `{}`, reachable from pure-model fn \
                         `{root}`; every effect must flow through the dispatcher so \
                         recorded traces replay through the pure models alone",
                        code[i].text, f.name
                    ),
                );
            }
        }
        _ => {}
    }
    out
}

/// `let`-bound literal fork handles that escape into unresolvable calls.
fn rule_fork_escape(graph: &Graph<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (fi, fv) in graph.files.iter().enumerate() {
        if fv.test_target {
            continue;
        }
        for (ni, f) in fv.fns.iter().enumerate() {
            if f.in_cfg_test {
                continue;
            }
            let Some((start, end)) = f.body else {
                continue;
            };
            let code = fv.code;
            let Some(calls) = graph.calls.get(&crate::graph::NodeId(fi, ni)) else {
                continue;
            };
            for i in start..end.min(code.len()) {
                if !is_ident(code, i, "fork") || i == 0 || !is_punct(code, i - 1, ".") {
                    continue;
                }
                let Some(stream) = fork_literal_arg(code, i) else {
                    continue;
                };
                // `let [mut] handle = receiver.fork(N)` — walk back over
                // the receiver chain to the binding.
                let mut j = i.wrapping_sub(2);
                while j >= 2 && is_punct(code, j - 1, ".") && ident_at(code, j - 2).is_some() {
                    j -= 2;
                }
                if j < 2 || !is_punct(code, j - 1, "=") {
                    continue;
                }
                let Some(handle) = ident_at(code, j - 2) else {
                    continue;
                };
                let let_bound = is_ident(code, j.wrapping_sub(3), "let")
                    || (is_ident(code, j.wrapping_sub(3), "mut")
                        && is_ident(code, j.wrapping_sub(4), "let"));
                if !let_bound {
                    continue;
                }
                for call in calls {
                    if call.tok <= i || !call.resolved.is_empty() {
                        continue;
                    }
                    let name = call.callee.name();
                    // Capitalized unresolved callees are constructors
                    // (`Some(h)`, `Ok(h)`) — the handle stays in scope.
                    if name.chars().next().is_some_and(char::is_uppercase) {
                        continue;
                    }
                    if matches!(call.callee, Callee::TypeMethod(_, _)) {
                        continue;
                    }
                    // Does the handle appear among the call's arguments?
                    let mut open = call.tok + 1;
                    while open < code.len() && !is_punct(code, open, "(") {
                        open += 1;
                    }
                    let close = match_delim(code, open, "(", ")");
                    if (open + 1..close.min(end)).any(|k| is_ident(code, k, handle)) {
                        out.push(Diagnostic::new(
                            fv.file,
                            &code[call.tok],
                            RULE_FORK_ESCAPE,
                            format!(
                                "RNG handle `{handle}` from fork({stream}) escapes into \
                                 `{name}`, which resolves to no workspace function; the \
                                 stream's draws cannot be checked — keep fork handles \
                                 inside analyzed code or draw the values first",
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

// ---- token helpers --------------------------------------------------------

fn is_punct(code: &[Token], i: usize, text: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

fn is_ident(code: &[Token], i: usize, text: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn ident_at(code: &[Token], i: usize) -> Option<&str> {
    code.get(i)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
}

/// Index of the matching closer for the opener at `open` (`(`/`[`/`{`),
/// or `code.len()` when unbalanced.
fn match_delim(code: &[Token], open: usize, open_c: &str, close_c: &str) -> usize {
    let mut depth = 0usize;
    for (i, tok) in code.iter().enumerate().skip(open) {
        if tok.kind == TokenKind::Punct {
            if tok.text == open_c {
                depth += 1;
            } else if tok.text == close_c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    code.len()
}

/// Counts top-level generic arguments of the `<...>` opening at `open`,
/// returning `(args, close_index)`. `->` arrows inside (e.g. `fn(A) -> B`
/// types) are skipped so their `>` does not close the list.
fn generic_args(code: &[Token], open: usize) -> (usize, usize) {
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut square = 0i32;
    let mut commas = 0usize;
    let mut i = open;
    while i < code.len() {
        let t = &code[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => {
                    angle -= 1;
                    if angle == 0 {
                        return (commas + 1, i);
                    }
                }
                "-" if is_punct(code, i + 1, ">") => i += 1, // skip `->`
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => square += 1,
                "]" => square -= 1,
                "," if angle == 1 && paren == 0 && square == 0 => commas += 1,
                _ => {}
            }
        }
        i += 1;
    }
    (commas + 1, code.len())
}

/// Skips a run of `#[...]` attributes starting at `j`.
fn skip_attrs(code: &[Token], mut j: usize) -> usize {
    while is_punct(code, j, "#") && is_punct(code, j + 1, "[") {
        j = match_delim(code, j + 1, "[", "]") + 1;
    }
    j
}

/// `fork ( <int> )` — returns the literal stream number.
fn fork_literal_arg(code: &[Token], i: usize) -> Option<u64> {
    if !is_punct(code, i + 1, "(") || !is_punct(code, i + 3, ")") {
        return None;
    }
    let lit = code.get(i + 2)?;
    if lit.kind != TokenKind::Int {
        return None;
    }
    let digits: String = lit.text.chars().filter(|c| c.is_ascii_digit()).collect();
    // Hex/octal/binary streams would mis-parse through the digit filter;
    // nobody writes fork(0x4), so treat them as non-literal instead.
    if lit.text.starts_with("0x") || lit.text.starts_with("0o") || lit.text.starts_with("0b") {
        return None;
    }
    digits.parse().ok()
}

/// Token index ranges (inclusive) of `#[cfg(test)] mod ... { ... }` bodies.
fn cfg_test_ranges(code: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < code.len() {
        let is_cfg_test = is_punct(code, i, "#")
            && is_punct(code, i + 1, "[")
            && is_ident(code, i + 2, "cfg")
            && is_punct(code, i + 3, "(")
            && is_ident(code, i + 4, "test")
            && is_punct(code, i + 5, ")")
            && is_punct(code, i + 6, "]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let j = skip_attrs(code, i + 7);
        if is_ident(code, j, "mod") {
            // `mod name { ... }` — find the body braces.
            let mut k = j + 1;
            while k < code.len() && !is_punct(code, k, "{") && !is_punct(code, k, ";") {
                k += 1;
            }
            if is_punct(code, k, "{") {
                let end = match_delim(code, k, "{", "}");
                ranges.push((k, end));
                i = end + 1;
                continue;
            }
        }
        i = j.max(i + 1);
    }
    ranges
}

// ---- directives -----------------------------------------------------------

/// Extracts `simlint: allow(rule, ...)` budgets from comments, plus
/// [`RULE_UNKNOWN`] diagnostics for names that match no rule.
fn parse_directives(file: &str, tokens: &[Token]) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for tok in tokens {
        // Directives are plain `// simlint: ...` line comments whose
        // content starts with the marker. Doc comments (`///`, `//!`) and
        // prose that merely *mentions* a directive are never directives.
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let body = tok.text.trim_start_matches('/');
        if tok.text.starts_with("///") || tok.text.starts_with("//!") {
            continue;
        }
        let Some(rest) = body.trim_start().strip_prefix("simlint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let args = rest
            .strip_prefix("allow")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('('))
            .and_then(|r| r.split_once(')'))
            .map(|(inside, _)| inside);
        let Some(args) = args else {
            diags.push(Diagnostic::new(
                file,
                tok,
                RULE_UNKNOWN,
                "malformed simlint directive; expected \
                 `simlint: allow(<rule>)`"
                    .to_string(),
            ));
            continue;
        };
        for name in args.split(',') {
            let name = name.trim();
            match ALL_RULES.iter().find(|r| **r == name) {
                Some(rule) => allows.push(Allow {
                    rule,
                    line: tok.line,
                    col: tok.col,
                    used: false,
                }),
                None => diags.push(Diagnostic::new(
                    file,
                    tok,
                    RULE_UNKNOWN,
                    format!(
                        "unknown rule `{name}` in allow directive (known: {})",
                        ALL_RULES.join(", ")
                    ),
                )),
            }
        }
    }
    (allows, diags)
}

// ---- individual rules -----------------------------------------------------

fn rule_nondet_iteration(file: &str, code: &[Token], raw: &mut Vec<Diagnostic>) {
    for i in 0..code.len() {
        let Some(name) = ident_at(code, i) else {
            continue;
        };
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        // Hasher parameter position: HashMap<K, V, S>, HashSet<T, S>.
        let with_hasher_arity = if name == "HashMap" { 3 } else { 2 };
        let open = if is_punct(code, i + 1, "<") {
            Some(i + 1)
        } else if is_punct(code, i + 1, ":")
            && is_punct(code, i + 2, ":")
            && is_punct(code, i + 3, "<")
        {
            Some(i + 3)
        } else {
            None
        };
        let tok = &code[i];
        if let Some(open) = open {
            let (args, _) = generic_args(code, open);
            if args < with_hasher_arity {
                raw.push(Diagnostic::new(
                    file,
                    tok,
                    RULE_NONDET_ITER,
                    format!(
                        "`{name}` with the default `RandomState` hasher: iteration \
                         order is nondeterministic; use a BTree collection or an \
                         explicit deterministic hasher"
                    ),
                ));
            }
        } else if is_punct(code, i + 1, ":")
            && is_punct(code, i + 2, ":")
            && matches!(ident_at(code, i + 3), Some("new" | "with_capacity"))
        {
            raw.push(Diagnostic::new(
                file,
                tok,
                RULE_NONDET_ITER,
                format!(
                    "`{name}::{}` always uses the random-seeded `RandomState`; \
                     use a BTree collection or `::default()` on an alias with a \
                     deterministic hasher",
                    ident_at(code, i + 3).expect("checked")
                ),
            ));
        }
    }
}

fn rule_wall_clock(file: &str, code: &[Token], raw: &mut Vec<Diagnostic>) {
    let mut in_use = false;
    for i in 0..code.len() {
        let tok = &code[i];
        match tok.kind {
            TokenKind::Ident if tok.text == "use" => in_use = true,
            TokenKind::Punct if tok.text == ";" => in_use = false,
            TokenKind::Ident if tok.text == "Instant" || tok.text == "SystemTime" => {
                let construction = is_punct(code, i + 1, ":")
                    && is_punct(code, i + 2, ":")
                    && matches!(ident_at(code, i + 3), Some("now" | "UNIX_EPOCH"));
                if in_use || construction {
                    raw.push(Diagnostic::new(
                        file,
                        tok,
                        RULE_WALL_CLOCK,
                        format!(
                            "`{}` reads the wall clock; simulation code must use \
                             `SimTime` (bench/testkit are exempt)",
                            tok.text
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

const ALLOC_CONSTRUCTS: &[&str] = &[
    "Vec::new",
    "vec![]",
    "to_vec",
    "collect",
    "format!",
    "Box::new",
    "String::from",
];

/// Allocating constructs in `[start, end)`, as `(token index, label)`.
fn alloc_findings(code: &[Token], start: usize, end: usize) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for i in start..end.min(code.len()) {
        let Some(name) = ident_at(code, i) else {
            continue;
        };
        let path_new = |what: &str| {
            name == what
                && is_punct(code, i + 1, ":")
                && is_punct(code, i + 2, ":")
                && is_ident(code, i + 3, "new")
        };
        if path_new("Vec") {
            out.push((i, "Vec::new"));
        } else if path_new("Box") {
            out.push((i, "Box::new"));
        } else if name == "String"
            && is_punct(code, i + 1, ":")
            && is_punct(code, i + 2, ":")
            && is_ident(code, i + 3, "from")
        {
            out.push((i, "String::from"));
        } else if (name == "vec" || name == "format") && is_punct(code, i + 1, "!") {
            out.push((i, if name == "vec" { "vec![]" } else { "format!" }));
        } else if (name == "to_vec" || name == "collect") && i > 0 && is_punct(code, i - 1, ".") {
            out.push((
                i,
                if name == "to_vec" {
                    "to_vec"
                } else {
                    "collect"
                },
            ));
        }
    }
    out
}

/// Effectful method calls in `[start, end)`: RNG draws, event-queue
/// scheduling/cancellation, and `Medium` mutation. The scan looks for
/// `.name(` receivers, so type paths and doc text never fire.
fn effect_findings(code: &[Token], start: usize, end: usize) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for i in start..end.min(code.len()) {
        let Some(name) = ident_at(code, i) else {
            continue;
        };
        if i == 0 || !is_punct(code, i - 1, ".") || !is_punct(code, i + 1, "(") {
            continue;
        }
        let what = if name == "fork" || name.starts_with("gen_") {
            "an RNG draw"
        } else if name == "schedule" || name == "cancel" {
            "an event-queue mutation"
        } else if name == "begin_transmission" || name == "finish_transmission" {
            "a Medium mutation"
        } else {
            continue;
        };
        out.push((i, what));
    }
    out
}

/// Serve-loop fns sit between a network peer and the scheduler: the
/// peer chooses how many bytes arrive and when. Three hazards are
/// banned. Whole-stream slurps (`read_to_end`/`read_to_string`) hand
/// the peer an unbounded allocation; frame loops must read
/// length-prefixed payloads and reject lengths over an explicit cap.
/// Buffer growth (`push`/`extend`/`extend_from_slice`/`append`/
/// `resize`) is allowed only when the fn visibly bounds it — some
/// identifier in the body mentioning `MAX`/capacity; otherwise
/// per-frame growth compounds across a session. And wall-clock reads
/// are banned outright: session behavior must be a function of the
/// protocol bytes, so pipe-mode replays and socket sessions behave
/// identically.
fn rule_serve_loop_block(
    file: &str,
    code: &[Token],
    start: usize,
    end: usize,
    fn_name: &str,
    raw: &mut Vec<Diagnostic>,
) {
    let end = end.min(code.len());
    // A bound mention anywhere in the body legitimizes growth calls:
    // `MAX_FRAME_LEN`, `with_capacity`, `queue_capacity`, ...
    let has_bound = (start..end).any(|i| {
        ident_at(code, i).is_some_and(|name| name.contains("MAX") || name.contains("capacity"))
    });
    for i in start..end {
        let Some(name) = ident_at(code, i) else {
            continue;
        };
        let tok = &code[i];
        if (name == "Instant" || name == "SystemTime")
            && is_punct(code, i + 1, ":")
            && is_punct(code, i + 2, ":")
            && matches!(ident_at(code, i + 3), Some("now" | "UNIX_EPOCH"))
        {
            raw.push(Diagnostic::new(
                file,
                tok,
                RULE_SERVE_LOOP,
                format!(
                    "`{name}` wall-clock read inside serve-loop fn `{fn_name}`; \
                     session behavior must be a function of the protocol \
                     bytes, not the host clock",
                    name = tok.text
                ),
            ));
            continue;
        }
        if i == 0 || !is_punct(code, i - 1, ".") || !is_punct(code, i + 1, "(") {
            continue;
        }
        if name == "read_to_end" || name == "read_to_string" {
            raw.push(Diagnostic::new(
                file,
                tok,
                RULE_SERVE_LOOP,
                format!(
                    "`.{name}(...)` slurps unbounded peer input inside \
                     serve-loop fn `{fn_name}`; read length-prefixed frames \
                     and reject lengths over an explicit cap"
                ),
            ));
            continue;
        }
        if matches!(
            name,
            "push" | "extend" | "extend_from_slice" | "append" | "resize"
        ) && !has_bound
        {
            raw.push(Diagnostic::new(
                file,
                tok,
                RULE_SERVE_LOOP,
                format!(
                    "`.{name}(...)` grows a buffer inside serve-loop fn \
                     `{fn_name}` with no visible bound (no MAX_*/capacity \
                     mention in the fn); peer-driven growth must be capped"
                ),
            ));
        }
    }
}

fn rule_float_event_key(
    file: &str,
    code: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    raw: &mut Vec<Diagnostic>,
) {
    let mut i = 0;
    while i + 3 < code.len() {
        let is_derive = is_punct(code, i, "#")
            && is_punct(code, i + 1, "[")
            && is_ident(code, i + 2, "derive")
            && is_punct(code, i + 3, "(");
        if !is_derive || in_test(i) {
            i += 1;
            continue;
        }
        let close_paren = match_delim(code, i + 3, "(", ")");
        let ordered =
            (i + 4..close_paren).any(|k| matches!(ident_at(code, k), Some("Ord" | "PartialOrd")));
        let attr_end = match_delim(code, i + 1, "[", "]");
        if !ordered {
            i = attr_end + 1;
            continue;
        }
        let mut j = skip_attrs(code, attr_end + 1);
        // Skip visibility (`pub`, `pub(crate)`).
        while matches!(
            ident_at(code, j),
            Some("pub" | "crate" | "in" | "super" | "self")
        ) || is_punct(code, j, "(")
            || is_punct(code, j, ")")
        {
            j += 1;
        }
        let keyword = ident_at(code, j);
        if !matches!(keyword, Some("struct" | "enum")) {
            i = attr_end + 1;
            continue;
        }
        let type_name = ident_at(code, j + 1).unwrap_or("?").to_string();
        // Find the item body: `{...}`, `(...);`, or a bare `;`.
        let mut k = j + 2;
        let body_range = loop {
            if k >= code.len() {
                break None;
            }
            if is_punct(code, k, "<") {
                let (_, close) = generic_args(code, k);
                k = close + 1;
                continue;
            }
            if is_punct(code, k, "{") {
                break Some((k + 1, match_delim(code, k, "{", "}")));
            }
            if is_punct(code, k, "(") {
                break Some((k + 1, match_delim(code, k, "(", ")")));
            }
            if is_punct(code, k, ";") {
                break None;
            }
            k += 1;
        };
        if let Some((lo, hi)) = body_range {
            for f in lo..hi.min(code.len()) {
                if matches!(ident_at(code, f), Some("f32" | "f64")) {
                    let tok = &code[f];
                    raw.push(Diagnostic::new(
                        file,
                        tok,
                        RULE_FLOAT_KEY,
                        format!(
                            "`{}` field in `{type_name}`, which derives an ordering: \
                             floats must never key the event queue (NaN breaks \
                             total order; rounding breaks replay)",
                            tok.text
                        ),
                    ));
                }
            }
            i = hi.max(attr_end) + 1;
        } else {
            i = attr_end + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_sim(source: &str) -> Vec<Diagnostic> {
        let mut linter = Linter::new(ForkRegistry::default(), LockRegistry::default());
        linter.lint_file("test.rs", source, &CrateContext::fixture());
        linter.finish(false);
        linter.diagnostics
    }

    #[test]
    fn default_hashmap_fires_and_custom_hasher_passes() {
        let diags = lint_sim(
            "type A = HashMap<u32, u32>;\n\
             type B = HashMap<u32, u32, BuildHasherDefault<H>>;\n\
             type C = HashSet<u64, BuildHasherDefault<H>>;\n\
             fn f() { let m: HashSet<u8> = HashSet::new(); }\n",
        );
        let fired: Vec<u32> = diags
            .iter()
            .filter(|d| d.rule == RULE_NONDET_ITER)
            .map(|d| d.line)
            .collect();
        assert_eq!(fired, vec![1, 4, 4]);
    }

    #[test]
    fn tuple_keys_do_not_inflate_arity() {
        let diags = lint_sim("type A = HashMap<(u32, u32), V>;\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let diags = lint_sim(
            "// HashMap::new() in a comment\n\
             const S: &str = \"HashMap::new() Instant::now()\";\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn wall_clock_fires_on_import_and_now() {
        let diags = lint_sim(
            "use std::time::Instant;\n\
             fn f() { let t = Instant::now(); let x: Option<Instant> = None; }\n",
        );
        let wall: Vec<u32> = diags
            .iter()
            .filter(|d| d.rule == RULE_WALL_CLOCK)
            .map(|d| d.line)
            .collect();
        // The import and the ::now() read fire; the type position does not.
        assert_eq!(wall, vec![1, 2]);
    }

    #[test]
    fn allow_suppresses_exactly_one() {
        let diags = lint_sim(
            "// simlint: allow(nondeterministic-iteration)\n\
             fn f() { let a = HashMap::<u32, u32>::new(); }\n\
             fn g() { let b: HashMap<u32, u32> = make(); }\n",
        );
        let fired: Vec<u32> = diags
            .iter()
            .filter(|d| d.rule == RULE_NONDET_ITER)
            .map(|d| d.line)
            .collect();
        assert_eq!(fired, vec![3], "only the un-allowed site remains");
    }

    #[test]
    fn comma_separated_allow_covers_multiple_rules() {
        let diags = lint_sim(
            "// simlint: allow(nondeterministic-iteration, wall-clock)\n\
             fn f() { let a = HashMap::<u32, u32>::new(); let t = Instant::now(); }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unused_allow_is_an_error_and_cannot_be_allowed() {
        let diags = lint_sim("// simlint: allow(wall-clock)\nfn f() {}\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_UNUSED_ALLOW);
        // Allowing unused-allow does not mask it.
        let diags = lint_sim(
            "// simlint: allow(unused-allow)\n\
             // simlint: allow(wall-clock)\n\
             fn f() {}\n",
        );
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(
            rules,
            vec![RULE_UNUSED_ALLOW, RULE_UNUSED_ALLOW],
            "{diags:?}"
        );
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let diags = lint_sim("// simlint: allow(no-such-rule)\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_UNKNOWN);
    }

    #[test]
    fn hot_path_alloc_scans_only_annotated_fns() {
        let diags = lint_sim(
            "fn cold() { let v = vec![1]; }\n\
             #[cfg_attr(simlint, hot_path)]\n\
             fn hot(xs: &[u32]) -> Vec<u32> {\n\
                 let v: Vec<u32> = xs.iter().copied().collect();\n\
                 let s = format!(\"{v:?}\");\n\
                 v\n\
             }\n",
        );
        let hot: Vec<u32> = diags
            .iter()
            .filter(|d| d.rule == RULE_HOT_PATH)
            .map(|d| d.line)
            .collect();
        assert_eq!(hot, vec![4, 5]);
    }

    #[test]
    fn hot_path_alloc_propagates_through_helpers_with_chain() {
        let diags = lint_sim(
            "struct W;\n\
             impl W {\n\
                 #[cfg_attr(simlint, hot_path)]\n\
                 fn hot(&mut self) { self.step(); }\n\
                 fn step(&mut self) { helper(); }\n\
             }\n\
             fn helper() { let v = vec![1]; }\n",
        );
        let hot: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == RULE_HOT_PATH).collect();
        assert_eq!(hot.len(), 1, "{diags:?}");
        assert_eq!(hot[0].line, 7);
        assert_eq!(
            hot[0].chain,
            vec!["test::hot", "test::step", "test::helper"]
        );
        assert!(hot[0]
            .message
            .contains("reachable from hot-path fn `test::hot`"));
        assert!(format!("{}", hot[0]).contains("(via test::hot → test::step → test::helper)"));
    }

    #[test]
    fn allow_suppresses_a_propagated_finding_at_the_violation_site() {
        let diags = lint_sim(
            "struct W;\n\
             impl W {\n\
                 #[cfg_attr(simlint, hot_path)]\n\
                 fn hot(&mut self) { self.step(); }\n\
                 // simlint: allow(hot-path-alloc) — cold branch, measured\n\
                 fn step(&mut self) { let v = vec![1]; }\n\
             }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn pure_model_effects_fire_only_in_annotated_fns() {
        let diags = lint_sim(
            "fn dispatcher(&mut self) { let r = self.rng.gen_unit_f64(); }\n\
             #[cfg_attr(simlint, pure_model)]\n\
             fn step(&mut self, q: &mut Q, m: &mut Medium) {\n\
                 let r = self.rng.gen_unit_f64();\n\
                 let s = self.rng.fork(3);\n\
                 let k = q.schedule(t, e);\n\
                 q.cancel(k);\n\
                 m.begin_transmission(n, now, airtime);\n\
                 self.tables.push(t);\n\
             }\n",
        );
        let fired: Vec<u32> = diags
            .iter()
            .filter(|d| d.rule == RULE_PURE_MODEL)
            .map(|d| d.line)
            .collect();
        assert_eq!(fired, vec![4, 5, 6, 7, 8]);
        // fork(3) inside the body also trips fork discipline separately;
        // the pure-model rule itself must not fire outside the marker.
        assert!(diags
            .iter()
            .all(|d| d.rule != RULE_PURE_MODEL || d.line >= 4));
    }

    #[test]
    fn pure_model_effects_propagate_to_callees() {
        let diags = lint_sim(
            "struct M;\n\
             impl M {\n\
                 #[cfg_attr(simlint, pure_model)]\n\
                 fn decide(&self) { self.inner(); }\n\
                 fn inner(&self) { self.rng.gen_unit_f64(); }\n\
             }\n",
        );
        let pure: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == RULE_PURE_MODEL).collect();
        assert_eq!(pure.len(), 1, "{diags:?}");
        assert_eq!(pure[0].line, 5);
        assert_eq!(pure[0].chain, vec!["test::decide", "test::inner"]);
    }

    #[test]
    fn serve_loop_fires_on_slurps_growth_and_wall_clock() {
        let diags = lint_sim(
            "fn anywhere(&mut self) { self.buf.read_to_end(&mut v); }\n\
             #[cfg_attr(simlint, serve_loop)]\n\
             fn session(&mut self, input: &mut R) {\n\
                 input.read_to_end(&mut self.buf);\n\
                 input.read_to_string(&mut self.text);\n\
                 self.frames.push(frame);\n\
                 let t = Instant::now();\n\
             }\n",
        );
        let fired: Vec<u32> = diags
            .iter()
            .filter(|d| d.rule == RULE_SERVE_LOOP)
            .map(|d| d.line)
            .collect();
        assert_eq!(fired, vec![4, 5, 6, 7], "unmarked fns never fire");
    }

    #[test]
    fn serve_loop_growth_passes_with_a_visible_bound() {
        let diags = lint_sim(
            "#[cfg_attr(simlint, serve_loop)]\n\
             fn read_frame(&mut self) {\n\
                 if len > MAX_FRAME_LEN { return Err(too_big(len)); }\n\
                 self.buf.resize(len, 0);\n\
                 self.frames.push(frame);\n\
             }\n\
             #[cfg_attr(simlint, serve_loop)]\n\
             fn admit(&mut self, jobs: Vec<Job>) {\n\
                 let mut out = Vec::with_capacity(jobs.len());\n\
                 out.extend(jobs);\n\
             }\n",
        );
        assert!(diags.iter().all(|d| d.rule != RULE_SERVE_LOOP), "{diags:?}");
    }

    #[test]
    fn float_event_key_fires_on_ordered_types_only() {
        let diags = lint_sim(
            "#[derive(PartialOrd, PartialEq)]\n\
             struct Bad { t: f64 }\n\
             #[derive(Clone)]\n\
             struct Fine { t: f64 }\n\
             #[derive(Ord, PartialOrd, Eq, PartialEq)]\n\
             struct Good(u64);\n",
        );
        let float: Vec<u32> = diags
            .iter()
            .filter(|d| d.rule == RULE_FLOAT_KEY)
            .map(|d| d.line)
            .collect();
        assert_eq!(float, vec![2]);
    }

    #[test]
    fn fork_literals_must_be_registered_and_unique() {
        let registry = ForkRegistry::parse("R.md", "| fixture | 4 | x |\n");
        let mut linter = Linter::new(registry, LockRegistry::default());
        linter.lint_file(
            "a.rs",
            "fn f(r: &SimRng) { let a = r.fork(4); let b = r.fork(4); let c = r.fork(9); }\n",
            &CrateContext::fixture(),
        );
        linter.finish(false);
        let fork: Vec<String> = linter
            .diagnostics
            .iter()
            .filter(|d| d.rule == RULE_FORK)
            .map(|d| d.message.clone())
            .collect();
        assert_eq!(fork.len(), 2, "{fork:?}");
        assert!(fork.iter().any(|m| m.contains("collides")));
        assert!(fork.iter().any(|m| m.contains("not registered")));
    }

    #[test]
    fn stale_registry_rows_fail_workspace_runs() {
        let registry = ForkRegistry::parse("R.md", "| fixture | 4 | x |\n| fixture | 5 | y |\n");
        let mut linter = Linter::new(registry, LockRegistry::default());
        linter.lint_file(
            "a.rs",
            "fn f(r: &SimRng) { let a = r.fork(4); }\n",
            &CrateContext::fixture(),
        );
        linter.finish(true);
        assert_eq!(linter.diagnostics.len(), 1);
        assert!(linter.diagnostics[0]
            .message
            .contains("no literal call site"));
        assert_eq!(linter.diagnostics[0].file, "R.md");
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_fork_discipline() {
        let diags = lint_sim(
            "#[cfg(test)]\n\
             mod tests {\n\
                 fn f(r: &SimRng) { let a = r.fork(123); }\n\
             }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn fork_escape_fires_when_a_handle_leaves_the_workspace() {
        let registry = ForkRegistry::parse("R.md", "| fixture | 7 | x |\n");
        let mut linter = Linter::new(registry, LockRegistry::default());
        linter.lint_file(
            "a.rs",
            "fn f(r: &SimRng) {\n\
                 let mut h = r.fork(7);\n\
                 stash(&mut h);\n\
             }\n",
            &CrateContext::fixture(),
        );
        linter.finish(false);
        let escapes: Vec<&Diagnostic> = linter
            .diagnostics
            .iter()
            .filter(|d| d.rule == RULE_FORK_ESCAPE)
            .collect();
        assert_eq!(escapes.len(), 1, "{:?}", linter.diagnostics);
        assert!(escapes[0].message.contains("escapes into `stash`"));
    }

    #[test]
    fn fork_escape_passes_for_workspace_resolvable_calls_and_draws() {
        let registry = ForkRegistry::parse("R.md", "| fixture | 7 | x |\n");
        let mut linter = Linter::new(registry, LockRegistry::default());
        linter.lint_file(
            "a.rs",
            "fn f(r: &SimRng) {\n\
                 let mut h = r.fork(7);\n\
                 place(&mut h, 4);\n\
                 let x = h.gen_unit_f64();\n\
                 let w = Some(h);\n\
             }\n\
             fn place(rng: &mut SimRng, n: u32) {}\n",
            &CrateContext::fixture(),
        );
        linter.finish(false);
        assert!(
            linter
                .diagnostics
                .iter()
                .all(|d| d.rule != RULE_FORK_ESCAPE),
            "{:?}",
            linter.diagnostics
        );
    }

    #[test]
    fn cross_file_propagation_carries_both_files_in_the_chain() {
        let mut linter = Linter::new(ForkRegistry::default(), LockRegistry::default());
        linter.lint_file(
            "entry.rs",
            "#[cfg_attr(simlint, hot_path)]\n\
             fn step(&mut self) { route_all(self); }\n",
            &CrateContext::fixture(),
        );
        linter.lint_file(
            "router.rs",
            "pub fn route_all(w: &mut W) { let v: Vec<u32> = Vec::new(); }\n",
            &CrateContext::fixture(),
        );
        linter.finish(false);
        let hot: Vec<&Diagnostic> = linter
            .diagnostics
            .iter()
            .filter(|d| d.rule == RULE_HOT_PATH)
            .collect();
        assert_eq!(hot.len(), 1, "{:?}", linter.diagnostics);
        assert_eq!(hot[0].file, "router.rs");
        assert_eq!(hot[0].chain, vec!["entry::step", "router::route_all"]);
    }
}
