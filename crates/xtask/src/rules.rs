//! The `prs-lint` rule suite.
//!
//! Each rule is a pass over the token stream of the files in its configured
//! path set, reported with file and line. The paper-specific rationale for
//! every rule lives in `docs/ANALYSIS.md`; in one line each:
//!
//! * `float` — the incentive-ratio proofs need the decomposition to be
//!   *exact*; no `f64`/`f32` types or float literals may appear in the
//!   exact kernels. The f64 capacity backend may only *propose*, never
//!   decide, and is the single `float_boundary_exempt` module where floats
//!   (and casts into them) are permitted.
//! * `cast` — `as` numeric casts truncate silently; exact kernels must use
//!   `From`/`TryFrom` or carry a range argument in an allow annotation.
//! * `panic` — library code must push failures into typed errors
//!   (`prs_core::Error`), not abort: no `unwrap`/`expect`/`panic!`-family
//!   macros outside tests.
//! * `hash-iter` — sweep and bench paths promise deterministic, in-order
//!   output; `HashMap`/`HashSet` iteration order is arbitrary, so those
//!   paths must use `BTreeMap`/`BTreeSet` or sort explicitly.
//! * `api-doc` — items declared on the umbrella surface must be documented
//!   (`pub use` re-exports inherit docs and are exempt).
//! * `non-exhaustive` — `#[non_exhaustive]` config structs must not *gain*
//!   public fields; new knobs go behind `with_*` builders. The known field
//!   sets are snapshotted in the lint config.
//! * `proptest-regressions` — every proptest suite must have a checked-in
//!   sibling `.proptest-regressions` file with no duplicate seeds, and the
//!   files must not be gitignored (seeds stay stable across CI jobs).
//! * `annotation` — a malformed or stale `prs-lint:` directive is itself a
//!   violation, so the escape hatch cannot rot.
//!
//! On top of the per-file passes sit three *workspace* rules that walk the
//! approximate call graph built by [`crate::graph`] (over-approximate by
//! design — see the module docs there for the soundness stance):
//!
//! * `panic-reach` — the lexical `panic` rule sees only direct sites; this
//!   rule flags any library-surface `pub fn` from which an unannotated
//!   panic-family site is *reachable*, printing the offending call chain.
//! * `lock-order` — `Mutex`/`RwLock` acquisitions are extracted with
//!   scope-depth tracking, held-lock sets are propagated through the call
//!   graph, and the rule reports acquisition-order cycles plus any
//!   flow-engine invocation (`max_flow`/`decompose`/`apply`) reached while
//!   a pool lock is held — the deadlock classes `prs serve` batching hits.
//! * `trace-registry` — every static span/counter name is collected and
//!   diffed against the checked-in `docs/trace-registry.txt`, so
//!   trace-name drift fails CI without running instrumented binaries.

use crate::allow::{collect_allows, Allow};
use crate::graph;
use crate::lexer::{lex, Lexed, TokKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule that fired.
    pub rule: &'static str,
    /// File, relative to the lint root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// One violation that an allow annotation silenced (counted, not hidden).
#[derive(Debug, Clone)]
pub struct AllowedSite {
    /// Rule that would have fired.
    pub rule: String,
    /// File, relative to the lint root.
    pub file: String,
    /// 1-based line of the silenced site.
    pub line: u32,
    /// The annotation's reason.
    pub reason: String,
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Escape hatches exercised, sorted by (file, line).
    pub allowed: Vec<AllowedSite>,
}

impl Report {
    /// Allowed-site count per rule (for the summary line).
    pub fn allowed_by_rule(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for a in &self.allowed {
            *out.entry(a.rule.clone()).or_insert(0) += 1;
        }
        out
    }

    /// Machine-readable report for `cargo xtask lint --json`: fixed key
    /// order, findings and allowed sites in their sorted order, so CI
    /// artifacts diff cleanly across runs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"allowed\": [");
        for (i, a) in self.allowed.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}}}",
                json_str(&a.file),
                a.line,
                json_str(&a.rule),
                json_str(&a.reason)
            ));
        }
        if !self.allowed.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"summary\": {{\"findings\": {}, \"allowed\": {}}}\n}}\n",
            self.findings.len(),
            self.allowed.len()
        ));
        out
    }
}

/// Minimal JSON string encoding (the report carries no non-string values
/// beyond line numbers, so this is the whole serializer).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where each rule applies. Paths are `/`-separated and relative to `root`;
/// an entry matches itself and everything beneath it.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root all paths are relative to.
    pub root: PathBuf,
    /// Directories to walk for `.rs` files and proptest suites.
    pub scan_roots: Vec<String>,
    /// Path prefixes never linted (vendored shims, fixtures, build output).
    pub skip: Vec<String>,
    /// Exact kernels: no floats.
    pub float_paths: Vec<String>,
    /// No `as` numeric casts (superset of the exact kernels).
    pub cast_paths: Vec<String>,
    /// The designated float-backend modules: carved out of *both* the
    /// `float` and `cast` rules even when a parent directory is covered.
    /// This is the boundary that makes "floats may propose, never decide"
    /// checkable — exactly one module in the flow crate may mention `f64`.
    pub float_boundary_exempt: Vec<String>,
    /// Library code: no panicking calls outside tests.
    pub panic_paths: Vec<String>,
    /// Deterministic sweep/bench paths: no hash collections.
    pub hash_paths: Vec<String>,
    /// Files whose declared `pub` items must carry doc comments.
    pub api_doc_files: Vec<String>,
    /// Snapshot of permitted public fields per `#[non_exhaustive]` struct.
    pub non_exhaustive_fields: BTreeMap<String, Vec<String>>,
    /// Concurrency-bearing modules the `lock-order` rule covers. The cli
    /// is deliberately out: its only "lock" is the stdout handle.
    pub lock_paths: Vec<String>,
    /// Call names that mean "the flow engine is running"; reaching one
    /// while a pool lock is held is a `lock-order` finding.
    pub flow_sinks: Vec<String>,
    /// Opt-in: count slice/array indexing as a panic source for
    /// `panic-reach`. Off in the workspace config — indexing is pervasive
    /// and the lexical rules never covered it; the gate exists so the
    /// tightening can be proven (selftest) before it is turned on.
    pub panic_reach_index_sites: bool,
    /// The checked-in trace-name registry the `trace-registry` rule diffs
    /// against, relative to `root`.
    pub trace_registry: String,
    /// `const` name prefixes whose string initializers are span names,
    /// with the layer they record under (the flow crate routes its span
    /// names through `SPAN_*` consts on `Capacity` impls).
    pub span_const_layers: Vec<(String, String)>,
}

const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

impl LintConfig {
    /// The real workspace rule map (see `docs/ANALYSIS.md` for rationale).
    pub fn workspace(root: PathBuf) -> Self {
        let exact_kernels = vec![
            // All big-integer / rational arithmetic.
            "crates/numeric/src".to_string(),
            // The whole flow crate: the generic Dinic kernel, the Capacity
            // trait, and the exact backends. The one sanctioned float
            // module is carved back out via `float_boundary_exempt`.
            "crates/flow/src".to_string(),
            // The decomposition driver, the session replay/certify paths,
            // the delta-mutation vocabulary (a `SetWeight` carries the exact
            // weight every tier certifies against; a float here could skew
            // it), and the Rational oracle every one of them is tested
            // against.
            "crates/bd/src/decomposition.rs".to_string(),
            "crates/bd/src/session.rs".to_string(),
            "crates/bd/src/delta.rs".to_string(),
            "crates/bd/src/reference.rs".to_string(),
            // The trace recorder: instrumented from inside the exact kernels,
            // so its own arithmetic (timing, percentiles, JSON export) must
            // stay integer-only too.
            "crates/trace/src".to_string(),
        ];
        let mut cast_paths = exact_kernels.clone();
        // The cast rule additionally covers the bd glue: a truncating cast
        // there can bias proposals systematically, and satellite
        // instrumentation must state its ranges.
        cast_paths.push("crates/bd/src".to_string());
        LintConfig {
            root,
            scan_roots: vec!["crates".into(), "src".into(), "tests".into()],
            skip: vec![
                "crates/xtask".into(), // the linter itself (dev tool, not library surface)
                "crates/bench".into(), // harness binaries; prints and unwraps are its job
            ],
            float_paths: exact_kernels,
            cast_paths,
            // The f64 Capacity backend is the single module allowed to
            // mention floats or cast into them; everything else in the flow
            // crate is generic over the Capacity trait and stays exact.
            // The checked-i128 fast tier (`network_i128.rs`) is deliberately
            // NOT exempted: it is an exact backend and every rule covers it.
            float_boundary_exempt: vec!["crates/flow/src/network_f64.rs".to_string()],
            panic_paths: vec![
                "crates/numeric/src".into(),
                "crates/graph/src".into(),
                "crates/flow/src".into(),
                "crates/bd/src".into(),
                "crates/core/src".into(),
                "crates/cli/src".into(),
                "crates/deviation/src".into(),
                "crates/sybil/src".into(),
                "crates/dynamics/src".into(),
                "crates/p2psim/src".into(),
                "crates/eg/src".into(),
                // The recorder runs inside every layer above; a panic here
                // takes the whole solver down with it.
                "crates/trace/src".into(),
            ],
            hash_paths: vec![
                "crates/deviation/src".into(),
                "crates/bd/src".into(),
                "crates/sybil/src".into(),
                // The SoA core and membership layer: hashing anywhere in
                // slot bookkeeping or rewiring would make round order (and
                // hence the bit-identical trajectories) nondeterministic.
                "crates/p2psim/src/soa.rs".into(),
                "crates/p2psim/src/membership.rs".into(),
                "crates/bench".into(),
                // Exporters group spans; hash iteration order would make the
                // summary / JSON output nondeterministic run to run.
                "crates/trace/src".into(),
            ],
            api_doc_files: vec!["src/lib.rs".into()],
            non_exhaustive_fields: BTreeMap::from([
                (
                    "AttackConfig".to_string(),
                    ["grid", "zoom_levels", "keep"].map(String::from).to_vec(),
                ),
                (
                    "GeneralAttackConfig".to_string(),
                    ["grid", "max_copies"].map(String::from).to_vec(),
                ),
                (
                    "SweepConfig".to_string(),
                    ["grid", "refine_bits"].map(String::from).to_vec(),
                ),
                (
                    "TraceConfig".to_string(),
                    ["enabled", "max_events_per_thread"]
                        .map(String::from)
                        .to_vec(),
                ),
                (
                    "MetricsConfig".to_string(),
                    ["enabled", "slo", "flight"].map(String::from).to_vec(),
                ),
                (
                    "FlightConfig".to_string(),
                    ["capacity", "dump_dir", "max_dumps"]
                        .map(String::from)
                        .to_vec(),
                ),
            ]),
            lock_paths: vec![
                "crates/bd/src".into(),
                "crates/dynamics/src".into(),
                "crates/p2psim/src".into(),
                "crates/sybil/src".into(),
                "crates/trace/src".into(),
                "crates/flow/src".into(),
                "crates/deviation/src".into(),
            ],
            flow_sinks: ["max_flow", "decompose", "apply"]
                .map(String::from)
                .to_vec(),
            panic_reach_index_sites: false,
            trace_registry: "docs/trace-registry.txt".into(),
            span_const_layers: vec![
                ("SPAN_".to_string(), "flow".to_string()),
                // `MSPAN_*` consts in the metrics module name spans the
                // recorder opens about itself (e.g. the flight-dump span).
                ("MSPAN_".to_string(), "metrics".to_string()),
                // `PSPAN_*` consts in the SoA swarm engine and the
                // membership layer (round, checkpoint, membership spans).
                ("PSPAN_".to_string(), "p2psim".to_string()),
                // `BSPAN_*` consts in bd's fan-out (the worker sections).
                ("BSPAN_".to_string(), "bd".to_string()),
            ],
        }
    }

    fn matches(&self, set: &[String], rel: &str) -> bool {
        set.iter()
            .any(|p| rel == p || rel.starts_with(&format!("{p}/")))
    }

    fn skipped(&self, rel: &str) -> bool {
        self.matches(&self.skip, rel)
    }
}

/// One lexed file plus the state every rule pass needs: allow annotations,
/// test regions, crate attribution. Built once per file and shared by the
/// per-file and workspace passes so allow bookkeeping stays in one place.
struct FileCtx {
    rel: String,
    krate: String,
    in_test_dir: bool,
    lexed: Lexed,
    depths: Vec<u32>,
    allows: Vec<Allow>,
    test_spans: Vec<(u32, u32)>,
}

impl FileCtx {
    fn new(rel: String, src: &str, report: &mut Report) -> FileCtx {
        // Test-only code is exempt from the code rules; the regressions
        // rule handles tests/ directories separately.
        let in_test_dir = rel.split('/').any(|c| c == "tests" || c == "benches");
        let lexed = lex(src);
        let depths = lexed.depths();
        let (allows, bad) = collect_allows(&lexed);
        for b in bad {
            report.findings.push(Finding {
                rule: "annotation",
                file: rel.clone(),
                line: b.line,
                message: b.message,
            });
        }
        let test_spans = test_regions(&lexed, &depths);
        FileCtx {
            krate: krate_of(&rel),
            rel,
            in_test_dir,
            lexed,
            depths,
            allows,
            test_spans,
        }
    }

    fn in_tests(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(s, e)| line >= s && line <= e)
    }

    /// Route a violation through the test exemption and allow machinery.
    fn emit(&self, report: &mut Report, rule: &'static str, line: u32, message: String) {
        if self.in_test_dir || self.in_tests(line) {
            return;
        }
        if let Some(a) = self.allows.iter().find(|a| {
            a.rules.iter().any(|r| r == rule) && line >= a.start_line && line <= a.end_line
        }) {
            a.used.set(true);
            report.allowed.push(AllowedSite {
                rule: rule.to_string(),
                file: self.rel.clone(),
                line,
                reason: a.reason.clone(),
            });
            return;
        }
        report.findings.push(Finding {
            rule,
            file: self.rel.clone(),
            line,
            message,
        });
    }

    /// Whether an allow for any of `rules` covers `line`, marking it used.
    /// This is coverage *without* an emitted finding: the reachability
    /// rules sanction panic **sites** this way, while their finding (if
    /// any) lands at the reaching function's definition line.
    fn sanctions(&self, rules: &[&str], line: u32) -> bool {
        if self.in_test_dir || self.in_tests(line) {
            return true;
        }
        match self.allows.iter().find(|a| {
            a.rules.iter().any(|r| rules.contains(&r.as_str()))
                && line >= a.start_line
                && line <= a.end_line
        }) {
            Some(a) => {
                a.used.set(true);
                true
            }
            None => false,
        }
    }
}

/// Run every rule over the configured tree: lex every file once, run the
/// per-file passes, then the workspace (call-graph) passes, and only then
/// report stale allows — a workspace rule is as entitled to use an allow
/// annotation as a lexical one.
pub fn run(cfg: &LintConfig) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut rs_files = Vec::new();
    for scan in &cfg.scan_roots {
        walk(&cfg.root.join(scan), &mut rs_files)?;
    }
    rs_files.sort();

    let mut files = Vec::new();
    for path in &rs_files {
        let rel = relative(&cfg.root, path);
        if cfg.skipped(&rel) {
            continue;
        }
        let src = std::fs::read_to_string(path)?;
        files.push(FileCtx::new(rel, &src, &mut report));
    }

    for fc in &files {
        lexical_rules(cfg, fc, &mut report);
    }
    workspace_rules(cfg, &files, &mut report);
    proptest_regressions_rule(cfg, &rs_files, &mut report);

    // Stale escape hatches are violations too — judged only after every
    // pass (per-file and workspace) has had its chance to use them.
    for fc in &files {
        for a in fc.allows.iter().filter(|a| !a.used.get()) {
            report.findings.push(Finding {
                rule: "annotation",
                file: fc.rel.clone(),
                line: a.comment_line,
                message: format!(
                    "stale allow({}) — it silences nothing; remove it",
                    a.rules.join(", ")
                ),
            });
        }
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .allowed
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Crate attribution from the path: `crates/<name>/…` → `<name>`, anything
/// else (the umbrella `src/`, `tests/`) → `root`. New crates need no
/// registration here, but they DO need adding to the rule path sets in
/// [`LintConfig::workspace`] to be covered.
fn krate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(k) = parts.next() {
            return k.to_string();
        }
    }
    "root".to_string()
}

/// The per-file (lexical) passes.
fn lexical_rules(cfg: &LintConfig, fc: &FileCtx, report: &mut Report) {
    let mut emit =
        |rule: &'static str, line: u32, message: String| fc.emit(report, rule, line, message);

    let boundary_exempt = cfg.matches(&cfg.float_boundary_exempt, &fc.rel);
    if !boundary_exempt && cfg.matches(&cfg.float_paths, &fc.rel) {
        float_rule(&fc.lexed, &mut emit);
    }
    if !boundary_exempt && cfg.matches(&cfg.cast_paths, &fc.rel) {
        cast_rule(&fc.lexed, &mut emit);
    }
    if cfg.matches(&cfg.panic_paths, &fc.rel) {
        panic_rule(&fc.lexed, &mut emit);
    }
    if cfg.matches(&cfg.hash_paths, &fc.rel) {
        hash_rule(&fc.lexed, &mut emit);
    }
    if cfg.api_doc_files.iter().any(|f| f == &fc.rel) {
        api_doc_rule(&fc.lexed, &fc.depths, &mut emit);
    }
    non_exhaustive_rule(cfg, &fc.lexed, &fc.depths, &mut emit);
}

/// The workspace (call-graph) passes: extract item tables for every
/// non-test file, link them, then run `panic-reach`, `lock-order`, and
/// `trace-registry`.
fn workspace_rules(cfg: &LintConfig, files: &[FileCtx], report: &mut Report) {
    let mut tables = Vec::new();
    for fc in files {
        if fc.in_test_dir {
            continue;
        }
        tables.push(graph::extract(
            &fc.rel,
            &fc.krate,
            &fc.lexed,
            &fc.depths,
            &fc.test_spans,
            &cfg.span_const_layers,
        ));
    }
    let names: Vec<(String, Vec<graph::TraceName>)> = tables
        .iter()
        .map(|t| (t.file.clone(), t.names.clone()))
        .collect();
    let linked = graph::link(tables);
    let by_rel: BTreeMap<&str, &FileCtx> = files.iter().map(|f| (f.rel.as_str(), f)).collect();

    panic_reach_rule(cfg, &linked, &by_rel, report);
    lock_order_rule(cfg, &linked, &by_rel, report);
    trace_registry_rule(cfg, &names, &by_rel, report);
}

/// `panic-reach`: every library-surface `pub fn` in the panic path set must
/// not reach a panic-family site in another function. Direct sites are the
/// lexical `panic` rule's job; sites sanctioned by an allow for `panic` or
/// `panic-reach` do not poison callers.
fn panic_reach_rule(
    cfg: &LintConfig,
    linked: &graph::Linked,
    by_rel: &BTreeMap<&str, &FileCtx>,
    report: &mut Report,
) {
    let sanctioned = |file: &str, line: u32| -> bool {
        by_rel
            .get(file)
            .is_some_and(|fc| fc.sanctions(&["panic", "panic-reach"], line))
    };
    for (i, d) in linked.defs.iter().enumerate() {
        if !d.is_pub || !cfg.matches(&cfg.panic_paths, &d.file) {
            continue;
        }
        let Some(fc) = by_rel.get(d.file.as_str()) else {
            continue;
        };
        if let Some((path, site)) = linked.panic_chain(i, cfg.panic_reach_index_sites, &sanctioned)
        {
            let chain = path
                .iter()
                .map(|&j| linked.defs[j].display())
                .collect::<Vec<_>>()
                .join(" → ");
            let last = *path.last().expect("chain is nonempty");
            fc.emit(
                report,
                "panic-reach",
                d.line,
                format!(
                    "`{}` can reach a panic through the call graph: {chain} — {} at {}:{}",
                    d.display(),
                    site.what,
                    linked.defs[last].file,
                    site.line
                ),
            );
        }
    }
}

/// `lock-order`: flow-engine sinks reached while a lock is held, and
/// acquisition-order cycles over the lock digraph (edges `held → acquired`
/// from both direct nesting and call-mediated acquisition).
fn lock_order_rule(
    cfg: &LintConfig,
    linked: &graph::Linked,
    by_rel: &BTreeMap<&str, &FileCtx>,
    report: &mut Report,
) {
    let facts = linked.lock_facts(&cfg.flow_sinks);
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    let add_edge = |edges: &mut BTreeMap<(String, String), (String, u32)>,
                    held: &str,
                    acq: &str,
                    file: &str,
                    line: u32| {
        let key = (held.to_string(), acq.to_string());
        let witness = (file.to_string(), line);
        match edges.get(&key) {
            Some(old) if *old <= witness => {}
            _ => {
                edges.insert(key, witness);
            }
        }
    };

    for d in &linked.defs {
        if !cfg.matches(&cfg.lock_paths, &d.file) {
            continue;
        }
        let Some(fc) = by_rel.get(d.file.as_str()) else {
            continue;
        };
        for l in &d.locks {
            for h in &l.held {
                add_edge(&mut edges, h, &l.lock, &d.file, l.line);
            }
        }
        for c in &d.calls {
            if c.held.is_empty() {
                continue;
            }
            let resolved = linked.resolve(c, &d.krate);
            if cfg.flow_sinks.iter().any(|s| s == &c.name) {
                fc.emit(
                    report,
                    "lock-order",
                    c.line,
                    format!(
                        "flow-engine `{}` invoked while holding lock(s) {{{}}} — release the \
                         pool lock before engine work",
                        c.name,
                        c.held.join(", ")
                    ),
                );
            } else if let Some(sink) = resolved.iter().find_map(|&j| facts[j].sink.clone()) {
                fc.emit(
                    report,
                    "lock-order",
                    c.line,
                    format!(
                        "call to `{}` reaches flow-engine `{sink}` while holding lock(s) \
                         {{{}}} — release the pool lock before engine work",
                        c.name,
                        c.held.join(", ")
                    ),
                );
            }
            for &j in &resolved {
                for l in &facts[j].acquires {
                    for h in &c.held {
                        add_edge(&mut edges, h, l, &d.file, c.line);
                    }
                }
            }
        }
    }

    for (locks, witnesses) in graph::lock_cycles(&edges) {
        let Some((_, (file, line))) = witnesses.iter().min_by_key(|(_, w)| w.clone()).cloned()
        else {
            continue;
        };
        let detail = witnesses
            .iter()
            .map(|((a, b), (f, l))| format!("{a}→{b} at {f}:{l}"))
            .collect::<Vec<_>>()
            .join(", ");
        let message = format!(
            "lock acquisition-order cycle among {{{}}}: {} — pick one global order",
            locks.join(", "),
            detail
        );
        match by_rel.get(file.as_str()) {
            Some(fc) => fc.emit(report, "lock-order", line, message),
            None => report.findings.push(Finding {
                rule: "lock-order",
                file,
                line,
                message,
            }),
        }
    }
}

/// `trace-registry`: the statically collected span/counter names and the
/// checked-in registry must agree, and the registry must be sorted and
/// duplicate-free (so CI artifact diffs are stable).
fn trace_registry_rule(
    cfg: &LintConfig,
    names: &[(String, Vec<graph::TraceName>)],
    by_rel: &BTreeMap<&str, &FileCtx>,
    report: &mut Report,
) {
    // First site wins per entry; `names` arrives in sorted file order.
    let mut sites: BTreeMap<&str, (&str, u32)> = BTreeMap::new();
    for (file, ns) in names {
        for n in ns {
            sites
                .entry(n.entry.as_str())
                .or_insert((file.as_str(), n.line));
        }
    }

    let reg_rel = cfg.trace_registry.clone();
    let content = match std::fs::read_to_string(cfg.root.join(&cfg.trace_registry)) {
        Ok(c) => c,
        Err(_) => {
            report.findings.push(Finding {
                rule: "trace-registry",
                file: reg_rel,
                line: 1,
                message: format!(
                    "trace registry `{}` is missing — run `cargo xtask registry --write`",
                    cfg.trace_registry
                ),
            });
            return;
        }
    };

    let mut registered: BTreeMap<String, u32> = BTreeMap::new();
    let mut prev: Option<(String, u32)> = None;
    for (idx, raw) in content.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let well_formed = l
            .strip_prefix("span ")
            .or_else(|| l.strip_prefix("counter "))
            .map(|r| r.contains('.'))
            .unwrap_or(false);
        if !well_formed {
            report.findings.push(Finding {
                rule: "trace-registry",
                file: reg_rel.clone(),
                line: line_no,
                message: format!(
                    "malformed registry entry `{l}` — expected `span <layer>.<name>` or \
                     `counter <dotted.name>`"
                ),
            });
            continue;
        }
        if let Some(first) = registered.get(l) {
            report.findings.push(Finding {
                rule: "trace-registry",
                file: reg_rel.clone(),
                line: line_no,
                message: format!("duplicate registry entry `{l}` (first at line {first})"),
            });
            continue;
        }
        if let Some((p, pl)) = &prev {
            if l < p.as_str() {
                report.findings.push(Finding {
                    rule: "trace-registry",
                    file: reg_rel.clone(),
                    line: line_no,
                    message: format!(
                        "registry out of order: `{l}` sorts before `{p}` (line {pl}) — keep \
                         the file sorted so CI diffs are stable"
                    ),
                });
            }
        }
        prev = Some((l.to_string(), line_no));
        registered.insert(l.to_string(), line_no);
    }

    for (entry, line_no) in &registered {
        if !sites.contains_key(entry.as_str()) {
            report.findings.push(Finding {
                rule: "trace-registry",
                file: reg_rel.clone(),
                line: *line_no,
                message: format!(
                    "stale registry entry `{entry}` — no span/counter site emits it; run \
                     `cargo xtask registry --write`"
                ),
            });
        }
    }
    for (entry, (file, line)) in &sites {
        if registered.contains_key(*entry) {
            continue;
        }
        if let Some(fc) = by_rel.get(*file) {
            fc.emit(
                report,
                "trace-registry",
                *line,
                format!(
                    "`{entry}` is not in `{}` — add it (or run `cargo xtask registry --write`)",
                    cfg.trace_registry
                ),
            );
        }
    }
}

/// The canonical trace-name registry content for the configured tree:
/// every static span/counter site, one `span <layer>.<name>` or
/// `counter <dotted.name>` line, sorted and deduplicated. `cargo xtask
/// registry --write` regenerates the checked-in file from this.
pub fn registry_content(cfg: &LintConfig) -> std::io::Result<String> {
    let mut rs_files = Vec::new();
    for scan in &cfg.scan_roots {
        walk(&cfg.root.join(scan), &mut rs_files)?;
    }
    rs_files.sort();
    let mut entries = std::collections::BTreeSet::new();
    for path in &rs_files {
        let rel = relative(&cfg.root, path);
        if cfg.skipped(&rel) || rel.split('/').any(|c| c == "tests" || c == "benches") {
            continue;
        }
        let src = std::fs::read_to_string(path)?;
        let lexed = lex(&src);
        let depths = lexed.depths();
        let spans = test_regions(&lexed, &depths);
        let table = graph::extract(
            &rel,
            &krate_of(&rel),
            &lexed,
            &depths,
            &spans,
            &cfg.span_const_layers,
        );
        entries.extend(table.names.into_iter().map(|n| n.entry));
    }
    let mut out = String::from(
        "# Trace-name registry — every static span/counter name in the tree.\n\
         # Regenerate with `cargo xtask registry --write`; the `trace-registry`\n\
         # lint diffs the instrumented tree against this file (sorted, one\n\
         # `span <layer>.<name>` or `counter <dotted.name>` per line).\n",
    );
    for e in entries {
        out.push_str(&e);
        out.push('\n');
    }
    Ok(out)
}

/// `f64`/`f32` tokens and float literals.
fn float_rule(lexed: &Lexed, emit: &mut impl FnMut(&'static str, u32, String)) {
    for t in &lexed.tokens {
        match &t.kind {
            TokKind::Ident(s) if s == "f64" || s == "f32" => emit(
                "float",
                t.line,
                format!("`{s}` in an exact kernel — floats may propose, never decide"),
            ),
            TokKind::Float => emit(
                "float",
                t.line,
                "float literal in an exact kernel".to_string(),
            ),
            _ => {}
        }
    }
}

/// `as <numeric type>` casts.
fn cast_rule(lexed: &Lexed, emit: &mut impl FnMut(&'static str, u32, String)) {
    for w in lexed.tokens.windows(2) {
        if let (TokKind::Ident(a), TokKind::Ident(ty)) = (&w[0].kind, &w[1].kind) {
            if a == "as" && NUMERIC_TYPES.contains(&ty.as_str()) {
                emit(
                    "cast",
                    w[0].line,
                    format!("`as {ty}` cast — use From/TryFrom or state the range in an allow"),
                );
            }
        }
    }
}

/// `.unwrap()` / `.expect(` and panic-family macros.
fn panic_rule(lexed: &Lexed, emit: &mut impl FnMut(&'static str, u32, String)) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if let TokKind::Ident(name) = &toks[i].kind {
            if PANIC_METHODS.contains(&name.as_str())
                && i > 0
                && toks[i - 1].kind == TokKind::Punct('.')
                && toks.get(i + 1).map(|t| t.kind == TokKind::Punct('(')) == Some(true)
            {
                emit(
                    "panic",
                    toks[i].line,
                    format!("`.{name}()` in library code — return a typed error instead"),
                );
            }
            if PANIC_MACROS.contains(&name.as_str())
                && toks.get(i + 1).map(|t| t.kind == TokKind::Punct('!')) == Some(true)
            {
                emit(
                    "panic",
                    toks[i].line,
                    format!("`{name}!` in library code — return a typed error instead"),
                );
            }
        }
    }
}

/// `HashMap` / `HashSet` in deterministic paths.
fn hash_rule(lexed: &Lexed, emit: &mut impl FnMut(&'static str, u32, String)) {
    for t in &lexed.tokens {
        if let TokKind::Ident(s) = &t.kind {
            if s == "HashMap" || s == "HashSet" {
                emit(
                    "hash-iter",
                    t.line,
                    format!("`{s}` in a deterministic path — use BTree collections or sort"),
                );
            }
        }
    }
}

/// Declared `pub` items at file depth 0 need a doc comment (`pub use` and
/// `pub(crate)` are exempt).
fn api_doc_rule(lexed: &Lexed, depths: &[u32], emit: &mut impl FnMut(&'static str, u32, String)) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if depths[i] != 0 || toks[i].kind != TokKind::Ident("pub".to_string()) {
            continue;
        }
        match toks.get(i + 1).map(|t| &t.kind) {
            Some(TokKind::Ident(k)) if k == "use" => continue,
            Some(TokKind::Punct('(')) => continue, // pub(crate): not public API
            _ => {}
        }
        // Walk back over the item's attributes to the start of the chain.
        let mut j = i;
        while j >= 2 && toks[j - 1].kind == TokKind::Punct(']') {
            let mut k = j - 1;
            let mut depth = 0i32;
            while k > 0 {
                match toks[k].kind {
                    TokKind::Punct(']') => depth += 1,
                    TokKind::Punct('[') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k -= 1;
            }
            if k >= 1 && toks[k - 1].kind == TokKind::Punct('#') {
                j = k - 1;
            } else {
                break;
            }
        }
        let item_start = toks[j].line;
        // Nearest comment above the item with no code in between must be an
        // outer doc comment.
        let documented = lexed
            .comments
            .iter()
            .rev()
            .find(|c| {
                c.end_line < item_start
                    && (c.end_line + 1..item_start).all(|l| !lexed.line_has_code(l))
            })
            .map(|c| c.text.starts_with('/'))
            .unwrap_or(false);
        if !documented {
            let name = toks
                .iter()
                .skip(i + 1)
                .find_map(|t| match &t.kind {
                    TokKind::Ident(s)
                        if ![
                            "fn", "struct", "enum", "trait", "mod", "type", "const", "static",
                            "unsafe", "async", "extern", "union", "impl",
                        ]
                        .contains(&s.as_str()) =>
                    {
                        Some(s.clone())
                    }
                    _ => None,
                })
                .unwrap_or_else(|| "<item>".into());
            emit(
                "api-doc",
                toks[i].line,
                format!("public item `{name}` on the umbrella surface has no doc comment"),
            );
        }
    }
}

/// `#[non_exhaustive]` structs must not declare public fields beyond the
/// snapshot in the config.
fn non_exhaustive_rule(
    cfg: &LintConfig,
    lexed: &Lexed,
    depths: &[u32],
    emit: &mut impl FnMut(&'static str, u32, String),
) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        // Match `# [ non_exhaustive ]`.
        if toks[i].kind != TokKind::Punct('#')
            || toks.get(i + 1).map(|t| &t.kind) != Some(&TokKind::Punct('['))
            || toks.get(i + 2).map(|t| &t.kind) != Some(&TokKind::Ident("non_exhaustive".into()))
            || toks.get(i + 3).map(|t| &t.kind) != Some(&TokKind::Punct(']'))
        {
            continue;
        }
        // Find the `struct Name {` this attribute decorates (skipping other
        // attributes such as `#[derive(...)]`).
        let mut k = i + 4;
        let mut name = None;
        while k + 1 < toks.len() {
            match &toks[k].kind {
                TokKind::Ident(s) if s == "struct" => {
                    if let TokKind::Ident(n) = &toks[k + 1].kind {
                        name = Some((n.clone(), k + 2));
                    }
                    break;
                }
                TokKind::Ident(s) if s == "enum" => break, // enums have no fields
                TokKind::Punct(';') => break,
                _ => k += 1,
            }
        }
        let Some((name, mut body)) = name else {
            continue;
        };
        // Skip generics to the `{` (tuple structs `(` have no named fields).
        while body < toks.len()
            && toks[body].kind != TokKind::Punct('{')
            && toks[body].kind != TokKind::Punct('(')
            && toks[body].kind != TokKind::Punct(';')
        {
            body += 1;
        }
        if body >= toks.len() || toks[body].kind != TokKind::Punct('{') {
            continue;
        }
        let field_depth = depths[body] + 1;
        let empty = Vec::new();
        let known = cfg.non_exhaustive_fields.get(&name).unwrap_or(&empty);
        let mut f = body + 1;
        while f < toks.len() && depths[f] >= field_depth {
            if depths[f] == field_depth
                && toks[f].kind == TokKind::Ident("pub".into())
                && toks.get(f + 1).map(|t| t.kind != TokKind::Punct('(')) == Some(true)
            {
                if let Some(TokKind::Ident(field)) = toks.get(f + 1).map(|t| &t.kind) {
                    if toks.get(f + 2).map(|t| &t.kind) == Some(&TokKind::Punct(':'))
                        && !known.iter().any(|x| x == field)
                    {
                        emit(
                            "non-exhaustive",
                            toks[f].line,
                            format!(
                                "`#[non_exhaustive]` config `{name}` gained public field \
                                 `{field}` — add a `with_{field}` builder and keep the field \
                                 private (or deliberately extend the snapshot in xtask)"
                            ),
                        );
                    }
                }
            }
            f += 1;
        }
    }
}

/// Line spans covered by `#[cfg(test)]` or `#[test]` items.
pub(crate) fn test_regions(lexed: &Lexed, depths: &[u32]) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut spans = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Punct('#')
            || toks.get(i + 1).map(|t| &t.kind) != Some(&TokKind::Punct('['))
        {
            continue;
        }
        let is_cfg_test = toks.get(i + 2).map(|t| &t.kind) == Some(&TokKind::Ident("cfg".into()))
            && toks.get(i + 3).map(|t| &t.kind) == Some(&TokKind::Punct('('))
            && toks.get(i + 4).map(|t| &t.kind) == Some(&TokKind::Ident("test".into()));
        let is_test_attr = toks.get(i + 2).map(|t| &t.kind) == Some(&TokKind::Ident("test".into()))
            && toks.get(i + 3).map(|t| &t.kind) == Some(&TokKind::Punct(']'));
        if !is_cfg_test && !is_test_attr {
            continue;
        }
        // Scope: from the attribute through the decorated item's last brace.
        let close = toks[i..]
            .iter()
            .position(|t| t.kind == TokKind::Punct(']'))
            .map(|p| i + p);
        let Some(close) = close else { continue };
        let d0 = depths[i];
        let mut cur = d0;
        let mut opened = false;
        let mut end = toks.last().map(|t| t.line).unwrap_or(toks[i].line);
        for t in toks.iter().skip(close + 1) {
            match t.kind {
                TokKind::Punct('{') => {
                    if cur == d0 {
                        opened = true;
                    }
                    cur += 1;
                }
                TokKind::Punct('}') => {
                    cur = cur.saturating_sub(1);
                    if cur < d0 || (opened && cur == d0) {
                        end = t.line;
                        break;
                    }
                }
                TokKind::Punct(';') if cur == d0 && !opened => {
                    end = t.line;
                    break;
                }
                _ => {}
            }
        }
        spans.push((toks[i].line, end));
    }
    spans
}

/// Every `tests/proptest_*.rs` needs a sibling `.proptest-regressions` file
/// (checked in, duplicate-free), and `.gitignore` must not hide them.
fn proptest_regressions_rule(cfg: &LintConfig, rs_files: &[PathBuf], report: &mut Report) {
    for path in rs_files {
        let rel = relative(&cfg.root, path);
        if cfg.skipped(&rel) {
            continue;
        }
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let in_tests = rel.split('/').any(|c| c == "tests");
        if !in_tests || !name.starts_with("proptest_") {
            continue;
        }
        let sibling = path.with_extension("proptest-regressions");
        if !sibling.exists() {
            report.findings.push(Finding {
                rule: "proptest-regressions",
                file: rel.clone(),
                line: 1,
                message: format!(
                    "proptest suite has no checked-in `{}` — create it (header-only is fine) \
                     so regression seeds are stable across CI jobs",
                    relative(&cfg.root, &sibling)
                ),
            });
            continue;
        }
        if let Ok(content) = std::fs::read_to_string(&sibling) {
            let mut seen = std::collections::BTreeSet::new();
            for (idx, l) in content.lines().enumerate() {
                let l = l.trim();
                if l.starts_with("cc ") && !seen.insert(l.to_string()) {
                    report.findings.push(Finding {
                        rule: "proptest-regressions",
                        file: relative(&cfg.root, &sibling),
                        line: (idx + 1) as u32,
                        message: "duplicate regression seed — dedupe the file".to_string(),
                    });
                }
            }
        }
    }
    let gitignore = cfg.root.join(".gitignore");
    if let Ok(content) = std::fs::read_to_string(&gitignore) {
        for (idx, l) in content.lines().enumerate() {
            if l.contains("proptest-regressions") && !l.trim_start().starts_with('#') {
                report.findings.push(Finding {
                    rule: "proptest-regressions",
                    file: ".gitignore".to_string(),
                    line: (idx + 1) as u32,
                    message: "regression seed files must be checked in, not ignored".to_string(),
                });
            }
        }
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    if dir.is_file() {
        out.push(dir.to_path_buf());
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name == "target" || name == ".git" || name == "fixtures" {
            continue;
        }
        if path.is_dir() {
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
