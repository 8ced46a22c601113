//! Reference breakpoint localization, the test oracle of
//! [`crate::solve_breakpoint`]: the sweep's former exact bisection, one cold
//! decomposition per probe. It shares nothing with the solver but the
//! family, so every breakpoint the solver returns must lie in its bracket.

use crate::family::GraphFamily;
use prs_bd::decompose;
use prs_numeric::Rational;

/// Bisect between `from` and `to` (either may be the larger) for `bits`
/// steps toward where the shape at `from` ends. Returns the bracket
/// `(a, b)`: `a` has the shape at `from`, `b` does not (or is
/// undecomposable). `None` if `from` itself is undecomposable.
pub fn bisect_breakpoint<F: GraphFamily>(
    fam: &F,
    from: &Rational,
    to: &Rational,
    bits: u32,
) -> Option<(Rational, Rational)> {
    let shape = |x: &Rational| decompose(&fam.graph_at(x)).ok().map(|bd| bd.shape());
    let start = shape(from)?;
    let (mut a, mut b) = (from.clone(), to.clone());
    for _ in 0..bits {
        let mid = a.midpoint(&b);
        if shape(&mid).as_ref() == Some(&start) {
            a = mid;
        } else {
            b = mid;
        }
    }
    Some((a, b))
}
