//! The disabled-path bound: with every recorder subsystem off, `span()` is
//! one relaxed atomic load and returns an inert guard. Over 2 M open+close
//! pairs the mean must stay under 50 ns/span.
//!
//! This file is its own test binary, so no concurrent test can turn the
//! recorder on while it times. The bound is for optimized builds:
//!
//! ```text
//! cargo test --release -p prs-trace --test disabled_overhead
//! ```

use std::time::Instant;

const SPANS: u32 = 2_000_000;
const BOUND_NS_PER_SPAN: f64 = 50.0;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "unoptimized builds sit at the bound; run with --release"
)]
fn disabled_span_open_close_stays_under_bound() {
    prs_trace::metrics::disable();
    prs_trace::disable();
    let t0 = Instant::now();
    for _ in 0..SPANS {
        let _span = std::hint::black_box(prs_trace::span("test", "overhead_probe"));
    }
    let ns_per_span = t0.elapsed().as_nanos() as f64 / f64::from(SPANS);
    assert!(
        ns_per_span < BOUND_NS_PER_SPAN,
        "disabled span path too slow: {ns_per_span:.2} ns/span (bound {BOUND_NS_PER_SPAN})"
    );
}
