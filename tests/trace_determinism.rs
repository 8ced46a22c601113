//! Determinism guarantees of the `prs-trace` recorder (ISSUE 4).
//!
//! Two promises, one per test half:
//!
//! * single-threaded runs export **byte-identical** JSONL once the
//!   timestamp fields are stripped (same events, same order, same
//!   attributes, worker 0 throughout);
//! * parallel sweeps are **permutation-equal**: scheduling decides which
//!   worker evaluates which point, but the multiset of deterministic
//!   payload events (the `deviation` layer: samples, refinements,
//!   breakpoints) is identical run to run after the `(worker, seq)` join.
//!
//! The recorder is process-global, so every test serializes on one lock.

use prs::prelude::*;
use prs::trace;
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn ring() -> Graph {
    builders::ring(vec![int(3), int(1), int(4), int(1), int(5), int(9)]).unwrap()
}

/// The flow-layer span vocabulary, read from the checked-in trace-name
/// registry — the single source of truth the `trace-registry` lint keeps
/// in sync with the instrumented tree (`cargo xtask registry --write`).
fn registered_flow_spans() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/trace-registry.txt");
    std::fs::read_to_string(path)
        .expect("docs/trace-registry.txt is checked in")
        .lines()
        .filter_map(|l| l.trim().strip_prefix("span flow."))
        .map(str::to_string)
        .collect()
}

/// Drop the volatile `ts_ns`/`dur_ns` fields from one JSONL line. The
/// exporter emits keys in a fixed order (`… "kind": …, "ts_ns": N,
/// "dur_ns": N, "worker": …`), so the cut points are well-defined.
fn strip_times(line: &str) -> String {
    let start = line.find("\"ts_ns\"").expect("ts_ns key present");
    let end = line.find("\"worker\"").expect("worker key present");
    format!("{}{}", &line[..start], &line[end..])
}

#[test]
fn single_threaded_jsonl_is_byte_identical_after_ts_strip() {
    let _guard = locked();
    let record_once = || {
        trace::clear();
        trace::enable();
        let g = ring();
        let bd = decompose(&g).unwrap();
        let _alloc = allocate(&g, &bd);
        trace::disable();
        trace::take().to_jsonl()
    };
    let a: Vec<String> = record_once().lines().map(strip_times).collect();
    let b: Vec<String> = record_once().lines().map(strip_times).collect();
    assert!(!a.is_empty(), "decompose+allocate recorded no events");
    assert_eq!(a, b, "single-threaded trace differs between identical runs");
    // Everything on one thread: worker 0, monotone seq.
    assert!(a.iter().all(|l| l.contains("\"worker\": 0")), "{a:?}");
    // The instrumented layers all show up.
    for needle in ["\"layer\": \"flow\"", "\"layer\": \"bd\""] {
        assert!(a.iter().any(|l| l.contains(needle)), "missing {needle}");
    }
}

#[test]
fn flow_spans_pin_engine_names_and_attrs() {
    let _guard = locked();
    // The kernel unification must not churn the trace vocabulary: the
    // flow layer emits exactly the six per-engine span names, two per
    // backend, and every one carries the `engine` attribute matching its
    // prefix. Drive all three backends: a cold decompose and a warm
    // same-shape session replay run the scaled-integer certifier, which
    // lands on the checked-i128 fast tier for these small weights; the
    // allocation runs the exact rational engine; a direct BigInt max-flow
    // covers the promotion target.
    trace::clear();
    trace::enable();
    let g = ring();
    let bd = decompose(&g).unwrap();
    let _alloc = allocate(&g, &bd);
    let mut session = DecompositionSession::detached();
    session.decompose(&ring()).unwrap();
    let reweighted = builders::ring(vec![int(4), int(1), int(4), int(1), int(5), int(9)]).unwrap();
    session.decompose(&reweighted).unwrap();
    let mut int_net = prs::flow::NetworkInt::new(2);
    int_net.add_edge(
        0,
        1,
        prs::flow::CapInt::Finite(prs::numeric::BigInt::from(3)),
    );
    let _ = int_net.max_flow(0, 1);
    trace::disable();
    let t = trace::take();

    let allowed = registered_flow_spans();
    assert_eq!(
        allowed.len(),
        6,
        "the registry should list the six per-engine flow spans: {allowed:?}"
    );
    let mut seen = std::collections::BTreeSet::new();
    for e in t.events.iter().filter(|e| e.layer == "flow") {
        assert!(
            allowed.iter().any(|n| n == e.name),
            "flow-layer span name not in docs/trace-registry.txt: {}",
            e.name
        );
        seen.insert(e.name);
        let engine = e
            .attrs
            .iter()
            .find(|(k, _)| *k == "engine")
            .unwrap_or_else(|| panic!("flow span {} has no engine attr", e.name));
        let prefix = e.name.split('_').next().unwrap();
        assert_eq!(
            engine.1, prefix,
            "engine attr disagrees with span name {}",
            e.name
        );
    }
    // All three backends actually ran (cold and warm rounds: i128 fast
    // tier; allocation: exact; direct run: int).
    for name in &allowed {
        assert!(
            seen.contains(name.as_str()),
            "engine span {name} never recorded"
        );
    }
}

#[test]
fn parallel_sweep_traces_are_permutation_equal() {
    let _guard = locked();
    // Which worker handles which sweep point (and therefore which session
    // cache warms up where) is scheduling-dependent, so worker-tagged
    // bookkeeping spans and `bd` cache-path attributes legitimately vary.
    // The deterministic payload — the `deviation` layer — must not.
    let record_once = || {
        trace::clear();
        trace::enable();
        let fam = MisreportFamily::new(ring(), 0);
        let result = sweep(&fam, &SweepConfig::new().with_grid(12).with_refine_bits(8));
        trace::disable();
        let t = trace::take();
        assert_eq!(t.dropped, 0, "sweep overflowed the trace buffer");
        let mut lines: Vec<String> = t
            .events
            .iter()
            .filter(|e| e.layer == "deviation")
            .map(|e| format!("{}.{} {:?} {:?}", e.layer, e.name, e.kind, e.attrs))
            .collect();
        lines.sort();
        (lines, result.intervals.len())
    };
    let (a, a_intervals) = record_once();
    let (b, b_intervals) = record_once();
    assert_eq!(
        a_intervals, b_intervals,
        "sweep itself must be deterministic"
    );
    assert!(
        a.iter().any(|l| l.contains("deviation.sample")),
        "sweep recorded no sample spans: {a:?}"
    );
    assert_eq!(a, b, "parallel sweep payload events differ between runs");
}

#[test]
fn parallel_sweep_records_worker_tagged_sections() {
    let _guard = locked();
    trace::clear();
    trace::enable();
    let fam = MisreportFamily::new(ring(), 0);
    let _result = sweep(&fam, &SweepConfig::new().with_grid(12).with_refine_bits(6));
    trace::disable();
    let t = trace::take();
    let workers: Vec<&trace::TraceEvent> = t
        .events
        .iter()
        .filter(|e| e.name == "pool_worker")
        .collect();
    assert!(
        !workers.is_empty(),
        "sweep fan-out recorded no worker spans"
    );
    for w in &workers {
        assert!(
            w.attrs.iter().any(|(k, _)| *k == "worker"),
            "pool_worker span missing worker attr: {w:?}"
        );
    }
    // Dense renumbering: worker ids drained from this run form 0..=max.
    let mut ids: Vec<u64> = t.events.iter().map(|e| e.worker).collect();
    ids.sort_unstable();
    ids.dedup();
    let expected: Vec<u64> = (0..ids.len() as u64).collect();
    assert_eq!(ids, expected, "worker ids are not dense");

    // Force a genuinely multi-threaded fan-out (independent of the core
    // count `sweep` adapts to) and check both workers' sections merge.
    trace::clear();
    trace::enable();
    let pool = SessionPool::new();
    let _results = pool.map_indexed(8, 2, |session, i| {
        let g = builders::ring(vec![int(1 + i as i64), int(2), int(3), int(4)]).unwrap();
        session.decompose(&g).unwrap()
    });
    trace::disable();
    let t = trace::take();
    let tagged: std::collections::BTreeSet<u64> = t
        .events
        .iter()
        .filter(|e| e.name == "pool_worker")
        .map(|e| e.worker)
        .collect();
    assert_eq!(tagged.len(), 2, "expected two pool_worker sections: {t:?}");
}
