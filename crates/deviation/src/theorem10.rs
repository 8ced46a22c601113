//! Theorem 10: `U_v(x)` is continuous and monotone non-decreasing.

use crate::family::GraphFamily;
use crate::sweep::{ShapeInterval, SweepResult};
use prs_numeric::Rational;

/// Outcome of a Theorem 10 check over a sweep.
#[derive(Clone, Debug)]
pub struct Theorem10Report {
    /// No sample pair violated monotonicity (exact comparison).
    pub monotone: bool,
    /// Largest utility jump across a breakpoint — the continuity
    /// certificate. At a solved breakpoint it is the exact gap between the
    /// two intervals' closed-form `U_v` there (Theorem 10: zero); across a
    /// fallback bracket, the utility gap between its two samples.
    pub max_breakpoint_jump: Rational,
    /// First violation, if any, as `(x_left, x_right, U_left, U_right)`.
    pub violation: Option<(Rational, Rational, Rational, Rational)>,
}

/// Check monotone non-decrease of `U_v(x)` across all samples of a sweep,
/// and measure the largest utility jump across its breakpoints.
pub fn check_theorem10_monotonicity<F: GraphFamily>(fam: &F, res: &SweepResult) -> Theorem10Report {
    let mut violation = None;
    for w in res.samples.windows(2) {
        if w[1].utility < w[0].utility && violation.is_none() {
            violation = Some((
                w[0].x.clone(),
                w[1].x.clone(),
                w[0].utility.clone(),
                w[1].utility.clone(),
            ));
        }
    }
    let v = fam.focus_vertex();
    let mut max_jump = Rational::zero();
    for (w, solved) in res.intervals.windows(2).zip(res.solved()) {
        let (u_left, u_right) = if let Some(x) = solved {
            let at = |iv: &ShapeInterval| iv.utility_model(fam, v)?.eval(x);
            (at(&w[0]), at(&w[1]))
        } else {
            let at = |x: &Rational| {
                res.samples
                    .iter()
                    .find(|s| &s.x == x)
                    .map(|s| s.utility.clone())
            };
            (at(&w[0].hi), at(&w[1].lo))
        };
        if let (Some(a), Some(b)) = (u_left, u_right) {
            let jump = (&b - &a).abs();
            if jump > max_jump {
                max_jump = jump;
            }
        }
    }
    Theorem10Report {
        monotone: violation.is_none(),
        max_breakpoint_jump: max_jump,
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::MisreportFamily;
    use crate::sweep::{sweep, SweepConfig};
    use prs_graph::{builders, random};
    use prs_numeric::{int, ratio, Rational};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ints(vals: &[i64]) -> Vec<Rational> {
        vals.iter().map(|&v| int(v)).collect()
    }

    fn check(g: prs_graph::Graph, v: usize) -> Theorem10Report {
        let fam = MisreportFamily::new(g, v);
        let res = sweep(&fam, &SweepConfig::new().with_grid(32).with_refine_bits(24));
        check_theorem10_monotonicity(&fam, &res)
    }

    #[test]
    fn utility_monotone_on_paths() {
        for weights in [[1i64, 2, 4], [5, 1, 5], [3, 3, 3]] {
            for v in 0..3 {
                let g = builders::path(ints(&weights)).unwrap();
                let rep = check(g, v);
                assert!(
                    rep.monotone,
                    "violation {:?} on {weights:?} v={v}",
                    rep.violation
                );
            }
        }
    }

    #[test]
    fn utility_monotone_on_random_rings() {
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..6 {
            let g = random::random_ring(&mut rng, 7, 1, 12);
            for v in [0usize, 3] {
                let rep = check(g.clone(), v);
                assert!(
                    rep.monotone,
                    "violation {:?} on {:?} v={v}",
                    rep.violation,
                    g.weights()
                );
            }
        }
    }

    #[test]
    fn utility_continuous_across_breakpoints() {
        // The breakpoint at x = 4 is solved, so both intervals' closed-form
        // U_v meet there exactly.
        let g = builders::ring(ints(&[6, 2, 4, 3, 5])).unwrap();
        let fam = MisreportFamily::new(g, 0);
        let res = sweep(&fam, &SweepConfig::new().with_grid(32).with_refine_bits(24));
        let rep = check_theorem10_monotonicity(&fam, &res);
        assert!(rep.monotone);
        assert_eq!(res.breakpoints(), vec![int(4)]);
        assert_eq!(rep.max_breakpoint_jump, int(0));
    }

    #[test]
    fn reporting_full_weight_is_dominant() {
        // Monotonicity ⇒ truthful reporting maximizes U_v: U_v(x) ≤ U_v(w_v).
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..5 {
            let g = random::random_ring(&mut rng, 5, 1, 10);
            let v = 2;
            let bd_true = prs_bd::decompose(&g).unwrap();
            let honest = bd_true.utility(&g, v);
            for i in 1..8 {
                let x = &(g.weight(v) * &ratio(i, 8));
                let g_x = g.with_weight(v, x.clone());
                let bd = prs_bd::decompose(&g_x).unwrap();
                assert!(
                    bd.utility(&g_x, v) <= honest,
                    "misreport beat honesty on {:?}",
                    g.weights()
                );
            }
        }
    }

    #[test]
    fn zero_report_gives_zero_utility() {
        let g = builders::ring(ints(&[4, 2, 3, 1])).unwrap();
        let g0 = g.with_weight(0, Rational::zero());
        let bd = prs_bd::decompose(&g0).unwrap();
        assert_eq!(bd.utility(&g0, 0), int(0));
    }
}
