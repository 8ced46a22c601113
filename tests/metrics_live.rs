//! Live-metrics acceptance (ISSUE 9): on a traced misreport sweep, the
//! streaming histograms' mid-run `snapshot()` must agree with the
//! post-hoc `span_stats()` aggregation — same counts and sums exactly,
//! and p50/p90/p99 within the histogram's documented relative-error
//! bound (`< 1/2^SUB_BITS`, exact below `2^SUB_BITS` ns) — for every
//! span kind, among them the two service-critical ones, `bd.session_round`
//! and `flow.i128_max_flow`. The snapshot must not drain anything: the full
//! event buffer is still there for `take()` afterwards. Both sides must
//! see the same set of span kinds, which includes the delta tier's
//! `bd.delta_apply`. A `Recomputed` delta serve is routine work, so it
//! must not raise an anomaly.

use prs::prelude::*;
use prs::trace;
use prs::trace::metrics;
use std::collections::BTreeSet;

fn ring() -> Graph {
    builders::ring(vec![int(3), int(1), int(4), int(1), int(5), int(9)]).unwrap()
}

#[test]
fn streaming_snapshot_matches_post_hoc_span_stats_within_bound() {
    trace::clear();
    metrics::reset();
    trace::enable();
    metrics::enable();

    let fam = MisreportFamily::new(ring(), 0);
    let result = sweep(&fam, &SweepConfig::new().with_grid(12).with_refine_bits(8));
    assert!(!result.intervals.is_empty(), "sweep produced no intervals");

    // Mid-run: both subsystems still enabled, nothing drained.
    let mid = metrics::snapshot();
    assert!(!mid.is_empty(), "mid-run snapshot must see live histograms");

    // More traffic after the snapshot: the histograms keep accumulating
    // (snapshot is a read, not a drain).
    let fam2 = MisreportFamily::new(ring(), 1);
    let _ = sweep(&fam2, &SweepConfig::new().with_grid(12).with_refine_bits(8));
    // One delta serve, so the window holds the delta tier's span as well.
    let mut served = DecompositionSession::new(ring());
    served
        .apply(Delta::SetWeight { v: 2, w: int(7) })
        .expect("valid delta");

    let live = metrics::snapshot();
    metrics::disable();
    trace::disable();
    let t = trace::take();
    assert!(
        !t.events.is_empty(),
        "snapshot() must not drain the event buffer"
    );
    assert_eq!(t.dropped, 0, "sweep overflowed the trace buffer");
    let post = t.span_stats();

    // The live histograms and the post-hoc aggregation saw the same span
    // kinds, the delta tier's included.
    let live_kinds: BTreeSet<_> = live.iter().map(|r| (r.layer, r.name)).collect();
    let post_kinds: BTreeSet<_> = post.iter().map(|r| (r.layer, r.name)).collect();
    assert_eq!(
        live_kinds, post_kinds,
        "live and post-hoc span kinds differ"
    );
    assert!(
        live_kinds.contains(&("bd", "delta_apply")),
        "no bd.delta_apply span in {live_kinds:?}"
    );

    for row in &mid {
        let after = live
            .iter()
            .find(|r| (r.layer, r.name) == (row.layer, row.name))
            .expect("span kinds only accumulate");
        assert!(
            after.count >= row.count,
            "counts are monotone across snapshots"
        );
    }

    for kind in [("bd", "session_round"), ("flow", "i128_max_flow")] {
        assert!(post_kinds.contains(&kind), "no span_stats row for {kind:?}");
    }
    for p in &post {
        let (layer, name) = (p.layer, p.name);
        let l = live
            .iter()
            .find(|r| (r.layer, r.name) == (layer, name))
            .expect("live and post-hoc span kinds are equal");
        assert_eq!(l.count, p.count, "{layer}.{name}: counts must match");
        assert_eq!(
            l.sum_ns, p.total_ns,
            "{layer}.{name}: summed duration must match exactly"
        );
        for (q, est, exact) in [
            (50u64, l.p50_ns, p.p50_ns),
            (90, l.p90_ns, p.p90_ns),
            (99, l.p99_ns, p.p99_ns),
        ] {
            assert!(
                est <= exact,
                "{layer}.{name} p{q}: histogram returns bucket lower bounds \
                 (est {est} > exact {exact})"
            );
            // Documented bound: (exact - est) · 2^SUB_BITS ≤ exact, i.e.
            // the streaming quantile undershoots by < 1/64 relative.
            let err = exact - est;
            assert!(
                err.saturating_mul(1 << metrics::SUB_BITS) <= exact,
                "{layer}.{name} p{q}: est {est} vs exact {exact} violates the \
                 1/2^{} relative-error bound",
                metrics::SUB_BITS
            );
        }
    }

    // `Recomputed` serves about half of a churn stream: it is counted
    // (`bd.delta_recomputed`), never raised as an anomaly that would make
    // an armed flight recorder dump.
    let anomalies = metrics::anomaly_count();
    let mut session = DecompositionSession::new(ring());
    let out = session.apply(Delta::SetWeight { v: 0, w: int(2) });
    assert_eq!(
        out,
        Ok(UpdateOutcome::Recomputed),
        "cold delta state recomputes"
    );
    assert_eq!(
        metrics::anomaly_count(),
        anomalies,
        "a Recomputed serve must leave the anomaly count unchanged"
    );
}
