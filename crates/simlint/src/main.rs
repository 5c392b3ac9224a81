//! `simlint` CLI.
//!
//! ```text
//! simlint --workspace              lint the whole workspace (CI tier-1 mode)
//! simlint [--forks F] [--locks L] FILE...
//!                                  lint specific files in fixture context
//! simlint --json ...               machine-readable diagnostics (one JSON
//!                                  object per line)
//! ```
//!
//! Exit codes: 0 clean, 1 diagnostics found, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{
    find_workspace_root, lint_paths, lint_workspace, Diagnostic, ForkRegistry, LockRegistry,
};

const USAGE: &str = "\
usage: simlint --workspace [--forks FORKS.md] [--locks LOCKS.md] [--json]
       simlint [--forks FORKS.md] [--locks LOCKS.md] [--json] FILE...

Lints Rust sources against the workspace's determinism and hot-path
invariants. In --workspace mode the fork registry defaults to FORKS.md and
the lock registry to LOCKS.md at the workspace root, and stale registry
rows are errors; with explicit FILE arguments every rule is active
(fixture context) and the registries are empty unless --forks/--locks are
given. --json emits one JSON object per diagnostic (fields: file, line,
col, rule, message, chain) instead of text.

Rules: nondeterministic-iteration, wall-clock, rng-fork-discipline,
hot-path-alloc, pure-model-effect, float-event-key, serve-loop-block,
lock-order, fork-escape, unused-allow (plus unknown-rule for bad allow
directives). The marker rules propagate
through the workspace call graph; transitive findings print their chain.
Suppress one diagnostic with `// simlint: allow(<rule>, ...)` on the same
line or the line above.";

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn to_json(diag: &Diagnostic) -> String {
    let chain: Vec<String> = diag
        .chain
        .iter()
        .map(|c| format!("\"{}\"", json_escape(c)))
        .collect();
    format!(
        "{{\"file\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"message\":\"{}\",\"chain\":[{}]}}",
        json_escape(&diag.file),
        diag.line,
        diag.col,
        diag.rule,
        json_escape(&diag.message),
        chain.join(",")
    )
}

fn run() -> Result<usize, String> {
    let mut workspace = false;
    let mut json = false;
    let mut forks_path: Option<PathBuf> = None;
    let mut locks_path: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--forks" => {
                let value = args.next().ok_or("--forks needs a path")?;
                forks_path = Some(PathBuf::from(value));
            }
            "--locks" => {
                let value = args.next().ok_or("--locks needs a path")?;
                locks_path = Some(PathBuf::from(value));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{USAGE}"));
            }
            file => files.push(PathBuf::from(file)),
        }
    }

    let load_forks = |path: &PathBuf| -> Result<ForkRegistry, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read fork registry {}: {e}", path.display()))?;
        Ok(ForkRegistry::parse(&path.to_string_lossy(), &text))
    };
    let load_locks = |path: &PathBuf| -> Result<LockRegistry, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read lock registry {}: {e}", path.display()))?;
        Ok(LockRegistry::parse(&path.to_string_lossy(), &text))
    };

    let diagnostics = if workspace {
        if !files.is_empty() {
            return Err(format!("--workspace takes no file arguments\n{USAGE}"));
        }
        let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
        let root = find_workspace_root(&cwd)
            .ok_or("no workspace root (Cargo.toml with [workspace]) above cwd")?;
        let forks = load_forks(&forks_path.unwrap_or_else(|| root.join("FORKS.md")))?;
        let locks = load_locks(&locks_path.unwrap_or_else(|| root.join("LOCKS.md")))?;
        lint_workspace(&root, forks, locks).map_err(|e| e.to_string())?
    } else {
        if files.is_empty() {
            return Err(format!("no input files\n{USAGE}"));
        }
        let forks = match &forks_path {
            Some(path) => load_forks(path)?,
            None => ForkRegistry::default(),
        };
        let locks = match &locks_path {
            Some(path) => load_locks(path)?,
            None => LockRegistry::default(),
        };
        lint_paths(&files, forks, locks).map_err(|e| e.to_string())?
    };

    for diag in &diagnostics {
        if json {
            println!("{}", to_json(diag));
        } else {
            println!("{diag}");
        }
    }
    Ok(diagnostics.len())
}

fn main() -> ExitCode {
    match run() {
        Ok(0) => ExitCode::SUCCESS,
        Ok(n) => {
            eprintln!("simlint: {n} diagnostic{}", if n == 1 { "" } else { "s" });
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("simlint: {message}");
            ExitCode::from(2)
        }
    }
}
