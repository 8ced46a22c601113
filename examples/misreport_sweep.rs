//! Section III-B in action: sweep an agent's reported weight.
//!
//! ```text
//! cargo run --example misreport_sweep
//! ```
//!
//! Sweeps `x ∈ [0, w_v]` for one agent, printing the exact
//! `(x, α_v(x), U_v(x), class)` series (the data behind Fig. 2), the
//! constant-shape intervals of the decomposition with their breakpoints
//! (Prop. 12 / Fig. 3), and the Proposition 11 case classification.

use prs::prelude::*;

fn main() {
    let g = builders::ring(vec![
        Rational::from_integer(6),
        Rational::from_integer(2),
        Rational::from_integer(4),
        Rational::from_integer(3),
        Rational::from_integer(5),
    ])
    .expect("valid ring");
    let v = 0usize;
    println!(
        "ring weights {:?}; sweeping agent {v}'s report x ∈ [0, {}]",
        g.weights(),
        g.weight(v)
    );

    let fam = MisreportFamily::new(g.clone(), v);
    let res = sweep(&fam, &SweepConfig::new().with_grid(32).with_refine_bits(24));

    println!("\n x\tα_v(x)\tU_v(x)\tclass");
    for s in res.samples.iter().step_by(2) {
        println!(
            " {:.4}\t{:.4}\t{:.4}\t{:?}",
            s.x.to_f64(),
            s.alpha.to_f64(),
            s.utility.to_f64(),
            s.class
        );
    }

    println!("\nconstant-shape intervals of 𝓑(x):");
    for (i, iv) in res.intervals.iter().enumerate() {
        println!(
            "  interval {i}: x ∈ [{:.6}, {:.6}], {} pairs, v is {:?}-class",
            iv.lo.to_f64(),
            iv.hi.to_f64(),
            iv.shape.len(),
            iv.focus_class
        );
    }
    let bps = res.breakpoints();
    println!(
        "breakpoints (exact where solved): {:?}",
        bps.iter().map(|b| b.to_f64()).collect::<Vec<_>>()
    );

    let case = classify_prop11(&fam, 30);
    println!("\nProposition 11 case for agent {v}: {case:?}");
    match case {
        Prop11Case::B1 => println!("  → C-class throughout; α_v(x) non-decreasing (Fig. 2a)"),
        Prop11Case::B2 => println!("  → B-class throughout; α_v(x) non-increasing (Fig. 2b)"),
        Prop11Case::B3 { ref lo, ref hi } => println!(
            "  → crossover x* ∈ [{:.6}, {:.6}] with α_v(x*) = 1 (Fig. 2c)",
            lo.to_f64(),
            hi.to_f64()
        ),
    }
}
