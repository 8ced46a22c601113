//! Process-wide instrumentation counters for the parametric max-flow
//! engines.
//!
//! The decomposition hot path fans out across worker threads (deviation
//! sweeps, Sybil grids, audit batches), so the counters are lock-free
//! atomics that any crate in the stack can bump; [`snapshot`] reads a
//! consistent-enough view for reporting (counts are monotone, so a snapshot
//! taken at a quiescent point — e.g. after a sweep joins its workers — is
//! exact). `prs audit --stats` and the experiment harness call [`reset`]
//! before a measured region and [`snapshot`] after it.
//!
//! The counters are [`prs_trace::Counter`]s, so the same values surface in
//! `prs-trace` summaries (`prs audit --trace`) alongside the span timings —
//! one recorder, two views. Counters are always live; span recording being
//! off changes nothing here.

use prs_trace::Counter;

/// A point-in-time copy of every engine counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Exact-engine Dinic BFS phases.
    pub exact_bfs_phases: u64,
    /// Exact-engine augmenting paths pushed.
    pub exact_augmenting_paths: u64,
    /// Exact max-flow computations run to completion.
    pub exact_max_flows: u64,
    /// Checked-i128 engine Dinic BFS phases.
    pub i128_bfs_phases: u64,
    /// Checked-i128 engine augmenting paths pushed.
    pub i128_augmenting_paths: u64,
    /// Checked-i128 max-flow computations run to completion.
    pub i128_max_flows: u64,
    /// BigInt (scaled-integer) engine Dinic BFS phases.
    pub int_bfs_phases: u64,
    /// BigInt engine augmenting paths pushed.
    pub int_augmenting_paths: u64,
    /// BigInt max-flow computations run to completion (promoted
    /// certification rounds).
    pub int_max_flows: u64,
    /// Certification rounds promoted from the i128 tier to BigInt
    /// (build-time width rejection or a runtime checked-arithmetic trip).
    pub i128_promotions: u64,
    /// Exact Dinkelbach descent steps (each one certification feasibility
    /// test).
    pub dinkelbach_iterations: u64,
    /// Flow networks built from scratch (fresh arc storage).
    pub networks_built: u64,
    /// Network rebuilds that reused existing arc storage (arena hits).
    pub networks_reused: u64,
    /// Certification rounds that kept their round index's last build: same
    /// alive set and induced adjacency, so only the source and sink
    /// capacities were rewritten (no rebuild, counted in neither of the two
    /// counters above).
    pub topology_reuses: u64,
    /// Session rounds settled by a cached shape certificate (one exact
    /// certification max-flow, no descent).
    pub session_hits: u64,
    /// Session rounds that ran a full descent (no cached candidate, or the
    /// warm candidate failed certification).
    pub session_misses: u64,
    /// Session rounds seeded from a cached shape (hits plus failed probes).
    pub session_warm_starts: u64,
    /// Delta mutations answered `Unchanged` without any flow invocation
    /// (no-op deltas, idempotent edge ops, C–C edge insertions).
    pub delta_unchanged: u64,
    /// Delta mutations whose every round replayed a cached certificate or
    /// certified its candidate with one first-try seeded flow.
    pub delta_recertified: u64,
    /// Delta mutations served with no current result, or with a round that
    /// descended past its candidate or ran cold.
    pub delta_recomputed: u64,
}

impl FlowStats {
    /// Fraction of session-served rounds settled straight from the shape
    /// cache (`NaN` when no session round was instrumented).
    // prs-lint: allow(float, reason = "display-only ratio; derived from exact counters, never fed back into the solver")
    pub fn session_hit_rate(&self) -> f64 {
        let total = self.session_hits + self.session_misses;
        if total == 0 {
            f64::NAN
        } else {
            // prs-lint: allow(cast, reason = "display-only ratio of event counters; f64 precision loss above 2^53 events is irrelevant")
            self.session_hits as f64 / total as f64
        }
    }

    /// Field-wise difference `self − earlier`, saturating at zero.
    ///
    /// Counters are monotone between resets, but a [`reset`] between the
    /// two snapshots makes `earlier` exceed `self`; saturating keeps that
    /// case a zero delta instead of a debug-build panic (or a release-mode
    /// wraparound masquerading as ~2^64 BFS phases).
    pub fn since(&self, earlier: &FlowStats) -> FlowStats {
        FlowStats {
            exact_bfs_phases: self
                .exact_bfs_phases
                .saturating_sub(earlier.exact_bfs_phases),
            exact_augmenting_paths: self
                .exact_augmenting_paths
                .saturating_sub(earlier.exact_augmenting_paths),
            exact_max_flows: self.exact_max_flows.saturating_sub(earlier.exact_max_flows),
            i128_bfs_phases: self.i128_bfs_phases.saturating_sub(earlier.i128_bfs_phases),
            i128_augmenting_paths: self
                .i128_augmenting_paths
                .saturating_sub(earlier.i128_augmenting_paths),
            i128_max_flows: self.i128_max_flows.saturating_sub(earlier.i128_max_flows),
            int_bfs_phases: self.int_bfs_phases.saturating_sub(earlier.int_bfs_phases),
            int_augmenting_paths: self
                .int_augmenting_paths
                .saturating_sub(earlier.int_augmenting_paths),
            int_max_flows: self.int_max_flows.saturating_sub(earlier.int_max_flows),
            i128_promotions: self.i128_promotions.saturating_sub(earlier.i128_promotions),
            dinkelbach_iterations: self
                .dinkelbach_iterations
                .saturating_sub(earlier.dinkelbach_iterations),
            networks_built: self.networks_built.saturating_sub(earlier.networks_built),
            networks_reused: self.networks_reused.saturating_sub(earlier.networks_reused),
            topology_reuses: self.topology_reuses.saturating_sub(earlier.topology_reuses),
            session_hits: self.session_hits.saturating_sub(earlier.session_hits),
            session_misses: self.session_misses.saturating_sub(earlier.session_misses),
            session_warm_starts: self
                .session_warm_starts
                .saturating_sub(earlier.session_warm_starts),
            delta_unchanged: self.delta_unchanged.saturating_sub(earlier.delta_unchanged),
            delta_recertified: self
                .delta_recertified
                .saturating_sub(earlier.delta_recertified),
            delta_recomputed: self
                .delta_recomputed
                .saturating_sub(earlier.delta_recomputed),
        }
    }

    /// Render as `key = value` lines for terminal reporting.
    // prs-lint: allow(float, reason = "percentage formatting of display-only rates")
    pub fn render(&self) -> String {
        let mut out = String::new();
        let rows: &[(&str, u64)] = &[
            ("exact max-flows", self.exact_max_flows),
            ("exact BFS phases", self.exact_bfs_phases),
            ("exact augmenting paths", self.exact_augmenting_paths),
            ("i128 max-flows", self.i128_max_flows),
            ("i128 BFS phases", self.i128_bfs_phases),
            ("i128 augmenting paths", self.i128_augmenting_paths),
            ("int max-flows", self.int_max_flows),
            ("int BFS phases", self.int_bfs_phases),
            ("int augmenting paths", self.int_augmenting_paths),
            ("i128 promotions", self.i128_promotions),
            ("Dinkelbach iterations", self.dinkelbach_iterations),
            ("networks built", self.networks_built),
            ("networks reused", self.networks_reused),
            ("topology reuses", self.topology_reuses),
            ("session hits", self.session_hits),
            ("session misses", self.session_misses),
            ("session warm-starts", self.session_warm_starts),
            ("delta unchanged", self.delta_unchanged),
            ("delta recertified", self.delta_recertified),
            ("delta recomputed", self.delta_recomputed),
        ];
        for (k, v) in rows {
            out.push_str(&format!("  {k:<24} {v}\n"));
        }
        let session_rate = self.session_hit_rate();
        if session_rate.is_finite() {
            out.push_str(&format!(
                "  {:<24} {:.1}%\n",
                "session hit rate",
                session_rate * 100.0
            ));
        }
        out
    }

    /// Serialize as a JSON object (no external serializer in the build
    /// environment).
    ///
    /// The derived `session_hit_rate` key is appended only when finite:
    /// with zero instrumented rounds the rate is `NaN`, which has no JSON
    /// representation, so the key is omitted rather than emitting an
    /// unparseable `NaN` literal.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            concat!(
                "{{\"exact_max_flows\": {}, \"exact_bfs_phases\": {}, ",
                "\"exact_augmenting_paths\": {}, ",
                "\"i128_max_flows\": {}, \"i128_bfs_phases\": {}, ",
                "\"i128_augmenting_paths\": {}, \"int_max_flows\": {}, ",
                "\"int_bfs_phases\": {}, \"int_augmenting_paths\": {}, ",
                "\"i128_promotions\": {}, ",
                "\"dinkelbach_iterations\": {}, \"networks_built\": {}, ",
                "\"networks_reused\": {}, \"topology_reuses\": {}, ",
                "\"session_hits\": {}, ",
                "\"session_misses\": {}, \"session_warm_starts\": {}, ",
                "\"delta_unchanged\": {}, \"delta_recertified\": {}, ",
                "\"delta_recomputed\": {}"
            ),
            self.exact_max_flows,
            self.exact_bfs_phases,
            self.exact_augmenting_paths,
            self.i128_max_flows,
            self.i128_bfs_phases,
            self.i128_augmenting_paths,
            self.int_max_flows,
            self.int_bfs_phases,
            self.int_augmenting_paths,
            self.i128_promotions,
            self.dinkelbach_iterations,
            self.networks_built,
            self.networks_reused,
            self.topology_reuses,
            self.session_hits,
            self.session_misses,
            self.session_warm_starts,
            self.delta_unchanged,
            self.delta_recertified,
            self.delta_recomputed,
        );
        let session = self.session_hit_rate();
        if session.is_finite() {
            out.push_str(&format!(", \"session_hit_rate\": {session:.6}"));
        }
        out.push('}');
        out
    }
}

macro_rules! counters {
    ($($static_name:ident($trace_name:literal) => $field:ident, $record:ident;)+) => {
        // Each engine counter is a `prs_trace::Counter`, so the same value
        // the `FlowStats` API reports also shows up (under its dotted
        // trace name) in `prs-trace` summaries.
        $(static $static_name: Counter = Counter::new($trace_name);)+

        $(
            /// Bump the corresponding engine counter by `n`.
            #[inline]
            pub fn $record(n: u64) {
                $static_name.add(n);
            }
        )+

        /// Read every counter.
        pub fn snapshot() -> FlowStats {
            FlowStats {
                $($field: $static_name.get(),)+
            }
        }

        /// Zero every counter (start of a measured region).
        pub fn reset() {
            $($static_name.set(0);)+
        }
    };
}

counters! {
    EXACT_BFS("flow.exact_bfs_phases") => exact_bfs_phases, record_exact_bfs_phases;
    EXACT_AUG("flow.exact_augmenting_paths") => exact_augmenting_paths, record_exact_augmenting_paths;
    EXACT_FLOWS("flow.exact_max_flows") => exact_max_flows, record_exact_max_flows;
    I128_BFS("flow.i128_bfs_phases") => i128_bfs_phases, record_i128_bfs_phases;
    I128_AUG("flow.i128_augmenting_paths") => i128_augmenting_paths, record_i128_augmenting_paths;
    I128_FLOWS("flow.i128_max_flows") => i128_max_flows, record_i128_max_flows;
    INT_BFS("flow.int_bfs_phases") => int_bfs_phases, record_int_bfs_phases;
    INT_AUG("flow.int_augmenting_paths") => int_augmenting_paths, record_int_augmenting_paths;
    INT_FLOWS("flow.int_max_flows") => int_max_flows, record_int_max_flows;
    I128_PROMOTIONS("bd.i128_promotions") => i128_promotions, record_i128_promotions;
    DINKELBACH("bd.dinkelbach_iterations") => dinkelbach_iterations, record_dinkelbach_iterations;
    NETS_BUILT("flow.networks_built") => networks_built, record_networks_built;
    NETS_REUSED("flow.networks_reused") => networks_reused, record_networks_reused;
    TOPOLOGY_REUSES("bd.topology_reuses") => topology_reuses, record_topology_reuses;
    SESSION_HITS("bd.session_hits") => session_hits, record_session_hits;
    SESSION_MISSES("bd.session_misses") => session_misses, record_session_misses;
    SESSION_WARM("bd.session_warm_starts") => session_warm_starts, record_session_warm_starts;
    DELTA_UNCHANGED("bd.delta_unchanged") => delta_unchanged, record_delta_unchanged;
    DELTA_RECERTIFIED("bd.delta_recertified") => delta_recertified, record_delta_recertified;
    DELTA_RECOMPUTED("bd.delta_recomputed") => delta_recomputed, record_delta_recomputed;
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counters are process-global; the tests below only assert relative
    // movement so they stay robust under parallel test execution.

    #[test]
    fn counters_accumulate_and_diff() {
        let before = snapshot();
        record_dinkelbach_iterations(3);
        record_networks_reused(2);
        record_topology_reuses(4);
        let after = snapshot();
        let delta = after.since(&before);
        assert!(delta.dinkelbach_iterations >= 3);
        assert!(delta.networks_reused >= 2);
        assert!(delta.topology_reuses >= 4);
    }

    #[test]
    fn render_and_json_mention_every_counter() {
        let s = FlowStats {
            dinkelbach_iterations: 7,
            session_hits: 7,
            session_misses: 1,
            topology_reuses: 5,
            ..FlowStats::default()
        };
        let text = s.render();
        assert!(text.contains("Dinkelbach iterations"));
        assert!(text.contains("topology reuses"), "{text}");
        assert!(text.contains("87.5%"), "rate rendering: {text}");
        let json = s.to_json();
        assert!(json.contains("\"dinkelbach_iterations\": 7"));
        assert!(json.contains("\"topology_reuses\": 5"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn rate_is_nan_when_uninstrumented() {
        assert!(FlowStats::default().session_hit_rate().is_nan());
    }

    #[test]
    fn since_saturates_after_reset_between_snapshots() {
        // Regression: `reset()` between two snapshots makes `earlier`
        // exceed the later snapshot; the delta must clamp to zero instead
        // of panicking (debug) or wrapping (release).
        let earlier = FlowStats {
            exact_max_flows: 10,
            session_hits: 4,
            dinkelbach_iterations: 100,
            ..FlowStats::default()
        };
        let later = FlowStats {
            exact_max_flows: 2,
            session_hits: 7,
            ..FlowStats::default()
        };
        let delta = later.since(&earlier);
        assert_eq!(delta.exact_max_flows, 0);
        assert_eq!(delta.dinkelbach_iterations, 0);
        assert_eq!(delta.session_hits, 3);
    }

    #[test]
    fn json_omits_rates_when_no_rounds_ran() {
        // Regression: `NaN` has no JSON representation; uninstrumented
        // snapshots must omit the rate keys entirely.
        let empty = FlowStats::default().to_json();
        assert!(!empty.contains("NaN"), "{empty}");
        assert!(!empty.contains("session_hit_rate"), "{empty}");
        assert!(empty.ends_with('}'), "{empty}");

        let active = FlowStats {
            session_hits: 1,
            session_misses: 1,
            ..FlowStats::default()
        }
        .to_json();
        assert!(
            active.contains("\"session_hit_rate\": 0.500000"),
            "{active}"
        );
    }

    #[test]
    fn counters_surface_in_trace_registry() {
        record_exact_max_flows(1);
        record_session_hits(1);
        record_topology_reuses(1);
        let names: Vec<&str> = prs_trace::counter_values()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(names.contains(&"flow.exact_max_flows"), "{names:?}");
        assert!(names.contains(&"bd.session_hits"), "{names:?}");
        assert!(names.contains(&"bd.topology_reuses"), "{names:?}");
    }

    #[test]
    fn session_counters_round_trip() {
        let before = snapshot();
        record_session_hits(4);
        record_session_misses(1);
        record_session_warm_starts(5);
        let delta = snapshot().since(&before);
        assert!(delta.session_hits >= 4);
        assert!(delta.session_misses >= 1);
        assert!(delta.session_warm_starts >= 5);
        let s = FlowStats {
            session_hits: 3,
            session_misses: 1,
            session_warm_starts: 3,
            ..FlowStats::default()
        };
        assert!(s.render().contains("session hits"));
        assert!(s.render().contains("75.0%"), "{}", s.render());
        assert!(s.to_json().contains("\"session_warm_starts\": 3"));
    }

    #[test]
    fn delta_counters_round_trip() {
        let before = snapshot();
        record_delta_unchanged(2);
        record_delta_recertified(3);
        record_delta_recomputed(1);
        let delta = snapshot().since(&before);
        assert!(delta.delta_unchanged >= 2);
        assert!(delta.delta_recertified >= 3);
        assert!(delta.delta_recomputed >= 1);
        let s = FlowStats {
            delta_unchanged: 5,
            delta_recertified: 2,
            delta_recomputed: 1,
            ..FlowStats::default()
        };
        assert!(s.render().contains("delta unchanged"));
        assert!(s.render().contains("delta recertified"));
        assert!(s.render().contains("delta recomputed"));
        let json = s.to_json();
        assert!(json.contains("\"delta_unchanged\": 5"), "{json}");
        assert!(json.contains("\"delta_recertified\": 2"), "{json}");
        assert!(json.contains("\"delta_recomputed\": 1"), "{json}");
        let names: Vec<&str> = prs_trace::counter_values()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(names.contains(&"bd.delta_unchanged"), "{names:?}");
        assert!(names.contains(&"bd.delta_recertified"), "{names:?}");
        assert!(names.contains(&"bd.delta_recomputed"), "{names:?}");
    }

    #[test]
    fn i128_counters_round_trip() {
        let before = snapshot();
        record_i128_bfs_phases(2);
        record_i128_augmenting_paths(3);
        record_i128_max_flows(1);
        record_i128_promotions(1);
        let delta = snapshot().since(&before);
        assert!(delta.i128_bfs_phases >= 2);
        assert!(delta.i128_augmenting_paths >= 3);
        assert!(delta.i128_max_flows >= 1);
        assert!(delta.i128_promotions >= 1);
        let s = FlowStats {
            i128_max_flows: 9,
            i128_promotions: 2,
            ..FlowStats::default()
        };
        assert!(s.render().contains("i128 max-flows"));
        assert!(s.render().contains("i128 promotions"));
        let json = s.to_json();
        assert!(json.contains("\"i128_max_flows\": 9"), "{json}");
        assert!(json.contains("\"i128_promotions\": 2"), "{json}");
        let names: Vec<&str> = prs_trace::counter_values()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(names.contains(&"flow.i128_max_flows"), "{names:?}");
        assert!(names.contains(&"bd.i128_promotions"), "{names:?}");
    }

    #[test]
    fn int_counters_round_trip() {
        let before = snapshot();
        record_int_bfs_phases(2);
        record_int_augmenting_paths(3);
        record_int_max_flows(1);
        let delta = snapshot().since(&before);
        assert!(delta.int_bfs_phases >= 2);
        assert!(delta.int_augmenting_paths >= 3);
        assert!(delta.int_max_flows >= 1);
        let s = FlowStats {
            int_max_flows: 4,
            int_bfs_phases: 5,
            int_augmenting_paths: 6,
            ..FlowStats::default()
        };
        for row in ["int max-flows", "int BFS phases", "int augmenting paths"] {
            assert!(s.render().contains(row), "{}", s.render());
        }
        let json = s.to_json();
        assert!(json.contains("\"int_max_flows\": 4"), "{json}");
        assert!(json.contains("\"int_bfs_phases\": 5"), "{json}");
        assert!(json.contains("\"int_augmenting_paths\": 6"), "{json}");
        let names: Vec<&str> = prs_trace::counter_values()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(names.contains(&"flow.int_max_flows"), "{names:?}");
    }
}
