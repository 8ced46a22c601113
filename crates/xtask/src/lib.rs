//! `prs-lint`: the workspace static-analysis suite behind `cargo xtask lint`.
//!
//! The paper's exact decomposition only proves anything if the code keeps
//! its promises: no float reaches an exact kernel, library code fails with
//! typed errors, sweeps are deterministic, and the public surface stays
//! documented and builder-extensible. This crate checks those promises on
//! every file, token by token, with a counted escape hatch per rule.
//!
//! Layers:
//! * [`lexer`] — a small Rust tokenizer (comments, strings, lifetimes,
//!   float vs. integer literals) that never fails;
//! * [`allow`] — the `// prs-lint: allow(RULE, reason = "...")` grammar;
//! * [`graph`] — per-file item tables (fn defs, call/lock/panic sites,
//!   trace-name literals) linked into an approximate workspace call graph;
//! * [`rules`] — the per-file rule passes, the workspace (call-graph)
//!   rules, and the file walker.
//!
//! The rules and their paper rationale are documented in `docs/ANALYSIS.md`.

pub mod allow;
pub mod graph;
pub mod lexer;
pub mod rules;

pub use rules::{registry_content, run, AllowedSite, Finding, LintConfig, Report};

use std::path::PathBuf;

/// Lint the workspace rooted at `root` with the standard rule map.
pub fn run_lint(root: PathBuf) -> std::io::Result<Report> {
    rules::run(&LintConfig::workspace(root))
}
