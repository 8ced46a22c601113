//! Sweep intervals as reusable [`StabilityCell`] certificates.
//!
//! A constant-shape interval of a one-parameter misreport family is exactly
//! the Proposition 11/12 "breakpoint cell" the incremental decomposition
//! session consumes: while the focus vertex's reported weight stays inside
//! `[lo, hi]`, the combinatorial shape is fixed and every pair's α-ratio
//! follows an exact Möbius curve of the moving weight. This module converts
//! [`ShapeInterval`]s into [`StabilityCell`]s, **endpoint-verified**: a cell
//! is emitted only when the interval's Möbius models reproduce the
//! α-ratios measured at *both* ends of the interval (and
//! [`verify_interval`](crate::moebius::verify_interval) checks them at
//! every sample). A cell covers only the interval's `sampled` range: short
//! of a solved breakpoint its shape does not reach, by up to a grid cell.
//!
//! Sessions treat installed cells as predictions and re-prove every
//! predicted α̂ through the certification max-flow before trusting it (see
//! `DESIGN.md` §3.3), so an over-wide or stale cell can cost a retried flow
//! but can never change a result. Cells only predict for families whose
//! sole moving weight is the focus vertex (the default
//! [`weight_slope`](crate::family::GraphFamily::weight_slope) model);
//! [`interval_cell`] refuses families that move other vertices.

use crate::family::GraphFamily;
use crate::sweep::{ShapeInterval, SweepResult};
use prs_bd::{CellMoebius, StabilityCell};

/// Build the endpoint-verified [`StabilityCell`] of one constant-shape
/// interval.
///
/// Returns `None` when the family moves any weight besides the focus
/// vertex's, or when a pair's Möbius model fails to reproduce the α-ratios
/// recorded at either endpoint — in all such cases the interval remains
/// usable as a plain [`ShapeInterval`]; the session simply gets no
/// prediction there.
pub fn interval_cell<F: GraphFamily>(fam: &F, interval: &ShapeInterval) -> Option<StabilityCell> {
    let focus = fam.focus_vertex();
    // The cell is parameterized by the focus vertex's own weight, so the
    // family must be the single-weight model: slope 1 at the focus, 0
    // elsewhere. (Sybil split families move two weights and are rejected.)
    let g = fam.graph_at(&interval.lo);
    for u in 0..g.n() {
        let expect = if u == focus { 1 } else { 0 };
        if fam.weight_slope(u) != expect {
            return None;
        }
    }
    let mut alphas = Vec::with_capacity(interval.shape.len());
    for (pair_idx, m) in interval.models.iter().enumerate() {
        if m.eval(&interval.lo)? != interval.alphas_lo[pair_idx]
            || m.eval(&interval.hi)? != interval.alphas_hi[pair_idx]
        {
            return None;
        }
        // Coefficient order differs between the two crates' conventions:
        // deviation's Moebius is (p + q·x)/(r + s·x) with p,r the constant
        // terms, while CellMoebius is (p·x + q)/(r·x + s) with q,s constant.
        alphas.push(CellMoebius {
            p: m.q.clone(),
            q: m.p.clone(),
            r: m.s.clone(),
            s: m.r.clone(),
        });
    }
    Some(StabilityCell {
        vertex: focus,
        lo: interval.sampled.0.clone(),
        hi: interval.sampled.1.clone(),
        shape: interval.shape.clone(),
        alphas,
    })
}

/// All endpoint-verified cells of a sweep, in parameter order.
///
/// Intervals failing verification are skipped silently — see
/// [`interval_cell`] for when that happens.
pub fn stability_cells<F: GraphFamily>(fam: &F, res: &SweepResult) -> Vec<StabilityCell> {
    res.intervals
        .iter()
        .filter_map(|iv| interval_cell(fam, iv))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::MisreportFamily;
    use crate::sweep::{sweep, SweepConfig};
    use prs_bd::{decompose, DecompositionSession, Delta, UpdateOutcome};
    use prs_graph::builders;
    use prs_numeric::{int, ratio, Rational};

    fn ints(vals: &[i64]) -> Vec<Rational> {
        vals.iter().map(|&v| int(v)).collect()
    }

    #[test]
    fn cells_match_measured_alphas_across_their_intervals() {
        let g = builders::ring(ints(&[6, 2, 4, 3, 5])).unwrap();
        let fam = MisreportFamily::new(g, 0);
        let res = sweep(&fam, &SweepConfig::new().with_grid(24).with_refine_bits(20));
        let cells = stability_cells(&fam, &res);
        assert_eq!(cells.len(), res.intervals.len(), "all intervals verify");
        for (cell, iv) in cells.iter().zip(&res.intervals) {
            assert_eq!(cell.vertex, 0);
            assert_eq!(cell.shape, iv.shape);
            assert_eq!(cell.alphas.len(), iv.shape.len());
            // Every *sample* inside the interval obeys the curves exactly.
            for s in res.samples.iter().filter(|s| cell.covers(0, &s.x)) {
                for (round, pair) in s.bd.pairs().iter().enumerate() {
                    let curve = cell.alpha_curve(round).unwrap();
                    assert_eq!(curve.eval(&s.x), Some(pair.alpha.clone()));
                }
            }
        }
    }

    #[test]
    fn exported_cells_predict_for_an_incremental_session() {
        // Sweep agent 0 of a ring, install the exported cells into a session
        // owning the same instance, then move agent 0's weight inside one
        // cell: the session must serve the delta from the recertified tier
        // (the cell predicted every round's α first try) and stay
        // bit-identical to a cold decomposition.
        let g = builders::ring(ints(&[6, 2, 4, 3, 5])).unwrap();
        let fam = MisreportFamily::new(g.clone(), 0);
        let res = sweep(&fam, &SweepConfig::new().with_grid(24).with_refine_bits(20));
        let cells = stability_cells(&fam, &res);
        assert!(!cells.is_empty());

        let mut session = DecompositionSession::new(g);
        session.current().unwrap();
        for cell in &cells {
            assert!(session.install_cell(cell.clone()));
        }

        // Pick an interior point of the cell containing the true weight 6.
        let cell = cells.iter().find(|c| c.covers(0, &int(6))).unwrap();
        let target = if cell.covers(0, &int(5)) {
            int(5)
        } else {
            cell.lo.midpoint(&cell.hi)
        };
        let out = session
            .apply(Delta::SetWeight {
                v: 0,
                w: target.clone(),
            })
            .unwrap();
        assert!(
            matches!(out, UpdateOutcome::Recertified { .. }),
            "cell-covered move must stay on the recertified tier, got {out:?}"
        );
        let cold = decompose(&fam.graph_at(&target)).unwrap();
        assert_eq!(*session.current().unwrap(), cold);
    }

    #[test]
    fn unverifiable_intervals_are_skipped_not_fabricated() {
        // A hand-built interval whose recorded α disagrees with the Möbius
        // model must be rejected by endpoint verification.
        let g = builders::ring(ints(&[6, 2, 4, 3, 5])).unwrap();
        let fam = MisreportFamily::new(g, 0);
        let res = sweep(&fam, &SweepConfig::new().with_grid(24).with_refine_bits(20));
        let mut iv = res.intervals[0].clone();
        iv.alphas_hi[0] = ratio(999, 1000);
        assert!(interval_cell(&fam, &iv).is_none());
    }
}
