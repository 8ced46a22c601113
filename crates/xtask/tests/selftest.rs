//! prs-lint self-test.
//!
//! Two halves, matching the two promises the lint suite makes:
//!
//! 1. **Every rule fires** — `fixtures/ws/` is a miniature workspace with
//!    one seeded violation per rule at a known `file:line`; running the
//!    real workspace config over it must reproduce exactly those findings.
//! 2. **The real workspace is clean** — running the suite over this
//!    repository must produce zero findings (violations are either fixed
//!    or carry a counted, reasoned allow annotation).

use prs_lint::rules::{run, LintConfig, Report};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws")
}

fn fixture_report() -> Report {
    run(&LintConfig::workspace(fixture_root())).expect("fixture tree lints")
}

fn assert_finding(report: &Report, rule: &str, file: &str, line: u32) {
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == rule && f.file == file && f.line == line),
        "expected [{rule}] at {file}:{line}; got:\n{}",
        render(report)
    );
}

fn assert_no_finding_at(report: &Report, rule: &str, file: &str, line: u32) {
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == rule && f.file == file && f.line == line),
        "unexpected [{rule}] at {file}:{line}"
    );
}

fn render(report: &Report) -> String {
    report
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}\n", f.file, f.line, f.rule, f.message))
        .collect()
}

#[test]
fn float_rule_fires_on_types_and_literals() {
    let r = fixture_report();
    let file = "crates/numeric/src/bad_float.rs";
    assert_finding(&r, "float", file, 5); // `-> f64`
    assert_finding(&r, "float", file, 6); // `0.5` literal
    assert_finding(&r, "float", file, 7); // `as f64` target type
}

#[test]
fn cast_rule_fires_on_as_numeric() {
    let r = fixture_report();
    let file = "crates/numeric/src/bad_float.rs";
    assert_finding(&r, "cast", file, 7); // `x as f64`
    assert_finding(&r, "cast", file, 12); // `x as u32`
}

#[test]
fn panic_rule_fires_on_unwrap_but_not_unwrap_or() {
    let r = fixture_report();
    let file = "crates/numeric/src/bad_float.rs";
    assert_finding(&r, "panic", file, 16); // `.unwrap()`
    assert_no_finding_at(&r, "panic", file, 20); // `.unwrap_or(0)` is fine
}

#[test]
fn test_regions_are_exempt_from_code_rules() {
    let r = fixture_report();
    let file = "crates/numeric/src/bad_float.rs";
    // Lines 23..=31 sit inside `#[cfg(test)] mod tests` and hold floats,
    // casts, and an unwrap_or — none may fire.
    for f in &r.findings {
        assert!(
            !(f.file == file && f.line >= 23),
            "rule [{}] fired inside a test region at {}:{}",
            f.rule,
            f.file,
            f.line
        );
    }
}

#[test]
fn hash_rule_fires_in_deterministic_paths() {
    let r = fixture_report();
    let file = "crates/bd/src/bad_hash.rs";
    assert_finding(&r, "hash-iter", file, 3); // the `use`
    assert_finding(&r, "hash-iter", file, 5); // return type
    assert_finding(&r, "hash-iter", file, 6); // constructor
}

#[test]
fn api_doc_rule_fires_on_undocumented_surface() {
    let r = fixture_report();
    let file = "src/lib.rs";
    assert_finding(&r, "api-doc", file, 8); // bare undocumented fn
    assert_finding(&r, "api-doc", file, 11); // attr-decorated undocumented struct
    assert_no_finding_at(&r, "api-doc", file, 3); // `pub use` is exempt
    assert_no_finding_at(&r, "api-doc", file, 6); // documented fn
}

#[test]
fn non_exhaustive_rule_fires_on_new_public_field() {
    let r = fixture_report();
    let file = "crates/sybil/src/bad_config.rs";
    assert_finding(&r, "non-exhaustive", file, 7); // `pub sneaky_knob`
    assert_no_finding_at(&r, "non-exhaustive", file, 6); // `grid` is in the snapshot
    assert_no_finding_at(&r, "non-exhaustive", file, 8); // private fields are fine
    let msg = r
        .findings
        .iter()
        .find(|f| f.rule == "non-exhaustive")
        .map(|f| f.message.clone())
        .unwrap_or_default();
    assert!(
        msg.contains("with_sneaky_knob"),
        "message should suggest the builder: {msg}"
    );
}

#[test]
fn trace_crate_paths_are_enforced() {
    // `crates/trace/src` joined every code-rule path set in PR 4; the
    // seeded fixture proves each rule actually fires there.
    let r = fixture_report();
    let file = "crates/trace/src/bad_trace.rs";
    assert_finding(&r, "hash-iter", file, 5); // the `use`
    assert_finding(&r, "float", file, 7); // `-> f64`
    assert_finding(&r, "float", file, 8); // `as f64` target type
    assert_finding(&r, "cast", file, 8); // `n as f64`
    assert_finding(&r, "hash-iter", file, 11); // return type
    assert_finding(&r, "hash-iter", file, 12); // constructor
    assert_finding(&r, "panic", file, 16); // `.unwrap()`
    assert_finding(&r, "non-exhaustive", file, 23); // `pub rogue_knob`
    assert_no_finding_at(&r, "non-exhaustive", file, 22); // `enabled` is in the snapshot
}

#[test]
fn flow_kernel_boundary_rules_fire() {
    // The kernel unification widened the float rule to all of
    // `crates/flow/src`; a backend leaking floats, casts, or panics into
    // the generic kernel directory must trip every boundary rule.
    let r = fixture_report();
    let file = "crates/flow/src/bad_capacity.rs";
    assert_finding(&r, "float", file, 4); // `f64` parameter types
    assert_finding(&r, "float", file, 5); // `1e-12` literal
    assert_finding(&r, "cast", file, 9); // `cap as i64`
    assert_finding(&r, "panic", file, 13); // `.expect(...)`
}

#[test]
fn i128_backend_boundary_rules_fire() {
    // The checked-i128 fast tier lives in the kernel directory and is
    // covered by every boundary rule: a fixture twin leaking floats, lossy
    // casts, or panics past the checked-arithmetic boundary must trip them
    // all.
    let r = fixture_report();
    let file = "crates/flow/src/bad_i128.rs";
    assert_finding(&r, "float", file, 4); // `-> f64`
    assert_finding(&r, "float", file, 5); // `as f64` target type
    assert_finding(&r, "cast", file, 5); // `(cap - flow) as f64`
    assert_finding(&r, "cast", file, 9); // `total as i64`
    assert_finding(&r, "panic", file, 13); // `.unwrap()` on checked_add
}

#[test]
fn delta_module_boundary_rules_fire() {
    // The delta-mutation vocabulary (`crates/bd/src/delta.rs`) joined the
    // exact-kernel float set in ISSUE 7 (casts and panics were already
    // covered directory-wide): a fixture twin leaking floats, lossy casts,
    // or panics into the cell/α̂ arithmetic must trip every rule, while
    // its test module stays exempt.
    let r = fixture_report();
    let file = "crates/bd/src/delta.rs";
    assert_finding(&r, "float", file, 4); // `-> f64`
    assert_finding(&r, "float", file, 5); // `as f64` target type
    assert_finding(&r, "cast", file, 5); // `alpha as f64`
    assert_finding(&r, "float", file, 6); // `0.5` literal
    assert_finding(&r, "cast", file, 10); // `n as usize`
    assert_finding(&r, "panic", file, 14); // `.unwrap()`
    assert_no_finding_at(&r, "panic", file, 22); // test region exempt
}

#[test]
fn float_tokens_fire_anywhere_in_the_flow_crate() {
    // No module of the flow crate is carved out of the float and cast
    // rules, not even one named like the retired f64 backend: its fixture
    // twin's float types and casts must all fire.
    let r = fixture_report();
    let file = "crates/flow/src/network_f64.rs";
    assert_finding(&r, "float", file, 5); // `f64` parameter types
    assert_finding(&r, "float", file, 9); // `-> f64`
    assert_finding(&r, "float", file, 10); // `as f64` target types
    assert_finding(&r, "cast", file, 10); // `num as f64 / den as f64`
}

#[test]
fn annotation_rule_fires_on_malformed_and_stale_allows() {
    let r = fixture_report();
    let file = "crates/flow/src/annotations.rs";
    assert_finding(&r, "annotation", file, 8); // stale allow
    assert_finding(&r, "annotation", file, 13); // missing reason
    assert_finding(&r, "annotation", file, 18); // unknown rule name
                                                // A malformed allow silences nothing: the cast under it still fires.
    assert_finding(&r, "cast", file, 15);
}

#[test]
fn allow_annotations_are_counted_not_hidden() {
    let r = fixture_report();
    let file = "crates/flow/src/annotations.rs";
    // The two well-formed allows (own-line fn scope, trailing) register
    // allowed sites at the silenced lines, carrying their reasons.
    let sanctioned = r
        .allowed
        .iter()
        .find(|a| a.file == file && a.line == 5)
        .expect("own-line allow registers an allowed site");
    assert_eq!(sanctioned.rule, "cast");
    assert!(sanctioned.reason.contains("sanctioned narrowing"));
    let trailing = r
        .allowed
        .iter()
        .find(|a| a.file == file && a.line == 24)
        .expect("trailing allow registers an allowed site");
    assert_eq!(trailing.rule, "cast");
    assert_no_finding_at(&r, "cast", file, 5);
    assert_no_finding_at(&r, "cast", file, 24);
    assert_eq!(r.allowed_by_rule().get("cast"), Some(&2));
}

#[test]
fn proptest_regressions_rule_fires() {
    let r = fixture_report();
    // Missing sibling file.
    assert_finding(
        &r,
        "proptest-regressions",
        "crates/bd/tests/proptest_missing.rs",
        1,
    );
    // Duplicate seed in an existing sibling.
    assert_finding(
        &r,
        "proptest-regressions",
        "crates/eg/tests/proptest_dup.proptest-regressions",
        8,
    );
    // Uncommented gitignore entry hiding seed files.
    assert_finding(&r, "proptest-regressions", ".gitignore", 3);
}

fn finding_message(report: &Report, rule: &str, file: &str, line: u32) -> String {
    report
        .findings
        .iter()
        .find(|f| f.rule == rule && f.file == file && f.line == line)
        .map(|f| f.message.clone())
        .unwrap_or_else(|| panic!("no [{rule}] at {file}:{line}:\n{}", render(report)))
}

#[test]
fn panic_reach_fires_with_call_chain() {
    let r = fixture_report();
    let file = "crates/bd/src/bad_reach.rs";
    // The finding lands at the surface fn's definition line and prints the
    // whole offending chain plus the site location.
    assert_finding(&r, "panic-reach", file, 9);
    let msg = finding_message(&r, "panic-reach", file, 9);
    assert!(
        msg.contains("Reach::surface_entry → mid_hop → deep_helper"),
        "chain missing from message: {msg}"
    );
    assert!(
        msg.contains(".unwrap() at crates/bd/src/bad_reach.rs:20"),
        "site missing from message: {msg}"
    );
    // The direct site stays the lexical rule's finding…
    assert_finding(&r, "panic", file, 20);
    // …and the indexing chain is silent while the gate is off.
    assert_no_finding_at(&r, "panic-reach", file, 23);
}

#[test]
fn panic_reach_indexing_sites_are_gated() {
    let mut cfg = LintConfig::workspace(fixture_root());
    cfg.panic_reach_index_sites = true;
    let r = run(&cfg).expect("fixture tree lints");
    let file = "crates/bd/src/bad_reach.rs";
    assert_finding(&r, "panic-reach", file, 23); // pick_first → index_helper → v[0]
    let msg = finding_message(&r, "panic-reach", file, 23);
    assert!(msg.contains("index_helper"), "chain missing: {msg}");
}

#[test]
fn lock_order_cycle_and_flow_sink_fire() {
    let r = fixture_report();
    let file = "crates/bd/src/bad_lock.rs";
    // The a→b / b→a cycle reports at the earliest witness line…
    assert_finding(&r, "lock-order", file, 14);
    let msg = finding_message(&r, "lock-order", file, 14);
    assert!(
        msg.contains("a→b at crates/bd/src/bad_lock.rs:14")
            && msg.contains("b→a at crates/bd/src/bad_lock.rs:20"),
        "cycle witnesses missing: {msg}"
    );
    // …and the flow-engine call under a held pool lock reports at the call.
    assert_finding(&r, "lock-order", file, 26);
    let msg = finding_message(&r, "lock-order", file, 26);
    assert!(msg.contains("max_flow") && msg.contains("{a}"), "{msg}");
}

#[test]
fn trace_registry_diffs_both_directions() {
    let r = fixture_report();
    let file = "crates/trace/src/bad_registry.rs";
    // Sites missing from the registry report at the site…
    assert_finding(&r, "trace-registry", file, 6); // span flow.rogue_span
    assert_finding(&r, "trace-registry", file, 7); // counter fixture.rogue_counter
    assert_no_finding_at(&r, "trace-registry", file, 5); // registered span

    // …registry entries with no site report as stale, and an unsorted
    // registry is itself a finding (a shuffled file fails CI).
    let reg = "docs/trace-registry.txt";
    assert_finding(&r, "trace-registry", reg, 2); // stale: flow.zzz_late
    assert_finding(&r, "trace-registry", reg, 3); // stale: flow.ghost_span
    assert!(
        r.findings.iter().any(|f| f.rule == "trace-registry"
            && f.file == reg
            && f.line == 3
            && f.message.contains("out of order")),
        "expected an out-of-order finding at {reg}:3:\n{}",
        render(&r)
    );
}

#[test]
fn json_report_has_fixed_key_order() {
    let r = fixture_report();
    let json = r.to_json();
    assert!(json.starts_with("{\n  \"findings\": ["), "{json}");
    let fpos = json.find("\"findings\"").expect("findings key");
    let apos = json.find("\"allowed\"").expect("allowed key");
    let spos = json.find("\"summary\"").expect("summary key");
    assert!(fpos < apos && apos < spos, "top-level key order drifted");
    // Entries keep file → line → rule → message order and sorted position.
    assert!(
        json.contains(
            "{\"file\": \"crates/bd/src/bad_hash.rs\", \"line\": 3, \"rule\": \"hash-iter\", \
             \"message\": "
        ),
        "{json}"
    );
    assert!(json.contains(&format!(
        "\"summary\": {{\"findings\": {}, \"allowed\": {}}}",
        r.findings.len(),
        r.allowed.len()
    )));
    // Messages with quotes must be escaped (the panic rule quotes idents
    // with backticks, but allow reasons may hold anything).
    assert!(!json.contains("\n\""), "unescaped newline inside a string");
}

#[test]
fn every_rule_fires_on_the_fixture_tree() {
    let r = fixture_report();
    let fired: std::collections::BTreeSet<&str> = r.findings.iter().map(|f| f.rule).collect();
    for rule in [
        "float",
        "cast",
        "panic",
        "hash-iter",
        "api-doc",
        "non-exhaustive",
        "annotation",
        "proptest-regressions",
        "panic-reach",
        "lock-order",
        "trace-registry",
    ] {
        assert!(
            fired.contains(rule),
            "rule [{rule}] never fired:\n{}",
            render(&r)
        );
    }
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let r = prs_lint::run_lint(root).expect("workspace lints");
    assert!(
        r.findings.is_empty(),
        "prs-lint found violations in the workspace:\n{}",
        render(&r)
    );
    // The escape hatch is exercised (and counted) in the real tree.
    assert!(!r.allowed.is_empty(), "expected counted allow sites");
}
