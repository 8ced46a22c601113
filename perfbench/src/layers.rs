//! Per-layer metrics shared by the workloads: the counters the program
//! exports, the repeatability check on them, and the traced pass.

use crate::attrib::{self, UNTRACED};
use crate::stats::{percentile, ratio};
use crate::Report;
use prs_core::trace::{self, EventKind, Trace, TraceConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-thread event cap of a traced pass; a pass that overflows it fails
/// its attribution check.
const TRACE_EVENTS_PER_THREAD: usize = 1 << 22;

/// The `*.self_ms` metric of each layer the breakdown reports.
const SELF_MS: &[(&str, &str)] = &[
    ("bd", "bd.self_ms"),
    ("flow", "flow.self_ms"),
    ("deviation", "deviation.self_ms"),
    ("sybil", "sybil.self_ms"),
    ("p2psim", "p2psim.self_ms"),
    (UNTRACED, "untraced.self_ms"),
];

/// How far each registered counter moved, by its registered name (counters
/// that did not move are left out).
pub type Counts = BTreeMap<&'static str, u64>;

/// Run `f`: its result and the counters it moved. Every counter the program
/// registers is read through `prs_core::trace::counter_values`, the
/// `flow::stats` engine counters included.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before: Counts = trace::counter_values().into_iter().collect();
    let out = f();
    let moved = trace::counter_values()
        .into_iter()
        .map(|(name, v)| {
            (
                name,
                v.saturating_sub(before.get(name).copied().unwrap_or(0)),
            )
        })
        .filter(|(_, d)| *d > 0)
        .collect();
    (out, moved)
}

/// The counter metrics of one untraced pass: every counter listed as a
/// per-layer metric, and the bd and flow hit rates.
pub fn set_counter_metrics(rep: &mut Report, c: &Counts) {
    for (name, v) in c {
        if crate::listed_per_layer(name) {
            rep.set(name, *v as f64);
        }
    }
    let get = |name: &str| c.get(name).copied().unwrap_or(0) as f64;
    let rate = |hit: &str, miss: &str| ratio(get(hit), get(hit) + get(miss));
    rep.set(
        "bd.session_hit_rate",
        rate("bd.session_hits", "bd.session_misses"),
    );
    rep.set(
        "bd.fast_path_rate",
        rate("bd.fast_path_hits", "bd.fast_path_fallbacks"),
    );
    rep.set(
        "flow.network_reuse_rate",
        rate("flow.networks_reused", "flow.networks_built"),
    );
}

/// Fail unless every pass moved every counter by the same amount.
pub fn check_repeat(rep: &mut Report, passes: &[Counts]) {
    for (i, p) in passes.iter().enumerate().skip(1) {
        rep.check(*p == passes[0], || {
            format!(
                "counters of pass {} differ from pass 1: {p:?} vs {:?}",
                i + 1,
                passes[0]
            )
        });
    }
}

/// Run `f` with the recorder on: its result, the drained trace and the
/// wall time of `f`.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Trace, Duration) {
    trace::clear();
    trace::install(&TraceConfig::new().with_max_events_per_thread(TRACE_EVENTS_PER_THREAD));
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    trace::disable();
    (out, trace::take(), wall)
}

/// The per-layer metrics of one traced pass of `wall`, against the same
/// pass untraced (`untraced_s` seconds).
pub fn record_trace(rep: &mut Report, t: &Trace, wall: Duration, untraced_s: f64) {
    rep.set("trace.dropped_events", t.dropped as f64);
    rep.set(
        "trace.overhead_ratio",
        ratio(wall.as_secs_f64(), untraced_s),
    );
    let spans = |layer: &'static str, name: &'static str| {
        t.events
            .iter()
            .filter(move |e| e.kind == EventKind::Span && e.layer == layer && e.name == name)
    };
    for (metric, name) in [
        ("flow.exact_max_flow.p50_us", "exact_max_flow"),
        ("flow.i128_max_flow.p50_us", "i128_max_flow"),
        ("flow.f64_max_flow.p50_us", "f64_max_flow"),
    ] {
        let us: Vec<f64> = spans("flow", name).map(|e| e.dur_ns as f64 / 1e3).collect();
        rep.set(metric, percentile(&us, 50.0));
    }
    rep.set(
        "deviation.samples",
        spans("deviation", "sample").count() as f64,
    );
    rep.set(
        "sybil.split_evals",
        spans("sybil", "split_eval").count() as f64,
    );

    let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
    match attrib::attribute(t, wall_ns) {
        Ok(a) => {
            rep.set("bd.fanout_parallelism", a.fanout_parallelism());
            let mut reported = 0.0;
            for (label, metric) in SELF_MS {
                let ns = a.self_ns.get(label).copied().unwrap_or(0.0);
                reported += ns;
                rep.set(metric, ns / 1e6);
            }
            let unreported: Vec<&str> = a
                .self_ns
                .iter()
                .filter(|(l, ns)| **ns > 0.0 && !SELF_MS.iter().any(|(s, _)| s == *l))
                .map(|(l, _)| *l)
                .collect();
            let sums = (reported - wall_ns as f64).abs() <= 1e-6 * wall_ns as f64;
            rep.check(unreported.is_empty() && sums, || {
                format!(
                    "self times add to {reported} ns of a {wall_ns} ns window \
                     (unreported layers: {unreported:?})"
                )
            });
        }
        Err(e) => rep.check(false, || format!("traced pass: {e}")),
    }
}
