//! Experiment harness: regenerates every figure and theorem-level claim of
//! the paper (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
//! for recorded results).
//!
//! ```text
//! cargo run --release -p prs-bench --bin experiments           # all
//! cargo run --release -p prs-bench --bin experiments e11       # one
//! ```
//!
//! Any argument other than `all` or an experiment name `e1`–`e18` is
//! rejected with a non-zero exit status.

use prs_bench::{fmt_q, prop11_showcase, ring_family, Table};
use prs_core::prelude::*;
use prs_core::sybil::theorem8::{lower_bound_ring, LOWER_BOUND_AGENT};
use prs_core::sybil::SybilContext;
use prs_core::RingInstance;
use std::process::ExitCode;

/// Every experiment, in the order a full run prints them.
const EXPERIMENTS: [(&str, fn()); 18] = [
    ("e1", e1_figure1),
    ("e2", e2_prop3_invariants),
    ("e3", e3_allocation_prop6),
    ("e4", e4_dynamics_convergence),
    ("e5", e5_alpha_curves),
    ("e6", e6_theorem10),
    ("e7", e7_breakpoint_events),
    ("e8", e8_case_frequencies),
    ("e9", e9_lemma9),
    ("e10", e10_stage_audits),
    ("e11", e11_theorem8),
    ("e12", e12_bound_history),
    ("e13", e13_protocol_level),
    ("e14", e14_general_conjecture),
    ("e15", e15_exhaustive_small_rings),
    ("e16", e16_eisenberg_gale),
    ("e17", e17_withholding),
    ("e18", e18_collusion),
];

fn main() -> ExitCode {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let known = |w: &String| w == "all" || EXPERIMENTS.iter().any(|(name, _)| w == name);
    if let Some(bad) = which.iter().find(|w| !known(w)) {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "experiments: unknown experiment `{bad}`; expected `all` or any of {}",
            names.join(" ")
        );
        return ExitCode::FAILURE;
    }
    for (name, experiment) in EXPERIMENTS {
        if which.is_empty() || which.iter().any(|w| w == name || w == "all") {
            experiment();
        }
    }
    ExitCode::SUCCESS
}

fn header(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// E1 — Fig. 1: the paper's worked bottleneck decomposition example.
fn e1_figure1() {
    header(
        "E1",
        "Figure 1 — bottleneck decomposition of the example graph",
    );
    let g = builders::figure1_example();
    let bd = decompose(&g).unwrap();
    let mut t = Table::new(&["pair", "B_i", "C_i", "α_i", "paper"]);
    let paper = ["({v1,v2}, {v3}), α=1/3", "({v4,v5,v6}, same), α=1"];
    for (i, p) in bd.pairs().iter().enumerate() {
        t.row(vec![
            format!("{}", i + 1),
            format!("{:?}", p.b.to_vec()),
            format!("{:?}", p.c.to_vec()),
            p.alpha.to_string(),
            paper[i].to_string(),
        ]);
    }
    t.print();
    assert_eq!(bd.pairs()[0].alpha, ratio(1, 3));
    assert_eq!(bd.pairs()[1].alpha, ratio(1, 1));
    println!("  matches the published decomposition exactly ✓");
}

/// E2 — Proposition 3 invariants over randomized families.
fn e2_prop3_invariants() {
    header(
        "E2",
        "Proposition 3 — decomposition invariants (randomized)",
    );
    let mut checked = 0usize;
    for n in [4usize, 6, 8, 12, 20] {
        for g in ring_family(42 + n as u64, 20, n, 1, 30) {
            let bd = decompose(&g).unwrap();
            bd.check_proposition3(&g).unwrap();
            checked += 1;
        }
    }
    for g in prs_bench::connected_family(7, 40, 10, 0.3) {
        let bd = decompose(&g).unwrap();
        bd.check_proposition3(&g).unwrap();
        checked += 1;
    }
    println!("  {checked} instances checked, 0 invariant violations ✓");
}

/// E3 — Definition 5 / Proposition 6: allocation feasibility + utilities.
fn e3_allocation_prop6() {
    header(
        "E3",
        "Definition 5 + Proposition 6 — BD allocation exactness",
    );
    let mut exact = 0usize;
    let mut total = 0usize;
    for n in [3usize, 5, 8, 13] {
        for g in ring_family(100 + n as u64, 15, n, 1, 25) {
            let bd = decompose(&g).unwrap();
            let alloc = allocate(&g, &bd);
            alloc.check_budget_balance(&g).unwrap();
            for v in 0..g.n() {
                total += 1;
                if alloc.utility(v) == bd.utility(&g, v) {
                    exact += 1;
                }
            }
        }
    }
    println!("  {exact}/{total} agent utilities equal the closed form exactly ✓");
    assert_eq!(exact, total);
}

/// E4 — convergence of the proportional response dynamics to the BD
/// allocation (Wu–Zhang / Proposition 6).
fn e4_dynamics_convergence() {
    header(
        "E4",
        "Proportional response convergence (target 1e-8, cap 1M rounds)",
    );
    // Note: convergence is guaranteed (Wu–Zhang) but the *rate* degrades
    // when two bottleneck pairs have nearly-tied α-ratios; such instances
    // are reported by their residual error instead of failing the run.
    let mut t = Table::new(&[
        "n",
        "median rounds",
        "max rounds",
        "converged",
        "worst residual",
    ]);
    for n in [4usize, 8, 16, 32, 64] {
        let mut rounds: Vec<usize> = Vec::new();
        let mut converged = 0usize;
        let mut worst_err = 0f64;
        let mut count = 0usize;
        for g in ring_family(200 + n as u64, 11, n, 1, 10) {
            let bd = decompose(&g).unwrap();
            let target: Vec<f64> = bd.utilities(&g).iter().map(|u| u.to_f64()).collect();
            let rep = run_until_close(&mut SoaSwarm::new(&g), &target, 1e-8, 1_000_000);
            count += 1;
            if rep.converged {
                converged += 1;
                rounds.push(rep.rounds);
            }
            worst_err = worst_err.max(rep.final_error);
            // Even the slow instances must be well on their way.
            assert!(rep.final_error < 1e-4, "n={n}: diverged? {rep:?}");
        }
        rounds.sort_unstable();
        t.row(vec![
            n.to_string(),
            rounds
                .get(rounds.len() / 2)
                .map_or("—".into(), |r| r.to_string()),
            rounds.last().map_or("—".into(), |r| r.to_string()),
            format!("{converged}/{count}"),
            format!("{worst_err:.2e}"),
        ]);
    }
    t.print();
}

/// E5 — Fig. 2: the three shapes of α_v(x).
fn e5_alpha_curves() {
    header("E5", "Figure 2 / Proposition 11 — α_v(x) curve shapes");
    for (name, g, v) in prop11_showcase() {
        let fam = MisreportFamily::new(g.clone(), v);
        let case = classify_prop11(&fam, 25);
        println!(
            "\n  {name} — weights {:?}, agent {v}: {case:?}",
            g.weights()
        );
        let res = sweep(&fam, &SweepConfig::new().with_grid(12).with_refine_bits(10));
        println!("    x → α_v(x) [class]:");
        for s in res.samples.iter().step_by(2) {
            println!(
                "      {:>8.4} → {:>8.4} [{:?}]",
                s.x.to_f64(),
                s.alpha.to_f64(),
                s.class
            );
        }
    }
}

/// E6 — Theorem 10: U_v(x) monotone and continuous.
fn e6_theorem10() {
    header("E6", "Theorem 10 — misreport utility monotone + continuous");
    let mut monotone_ok = 0usize;
    let mut total = 0usize;
    let mut max_jump = Rational::zero();
    for n in [4usize, 6, 8] {
        for g in ring_family(300 + n as u64, 6, n, 1, 12) {
            for v in 0..2 {
                let fam = MisreportFamily::new(g.clone(), v);
                let res = sweep(&fam, &SweepConfig::new().with_grid(24).with_refine_bits(20));
                let rep = prs_core::deviation::check_theorem10_monotonicity(&fam, &res);
                total += 1;
                if rep.monotone {
                    monotone_ok += 1;
                }
                if rep.max_breakpoint_jump > max_jump {
                    max_jump = rep.max_breakpoint_jump.clone();
                }
            }
        }
    }
    println!("  monotone on {monotone_ok}/{total} sweeps ✓");
    println!(
        "  largest utility gap across a breakpoint: {:.3e} (continuity certificate)",
        max_jump.to_f64()
    );
    assert_eq!(monotone_ok, total);
}

/// E7 — Fig. 3 / Proposition 12: merge/split structure at breakpoints.
fn e7_breakpoint_events() {
    header("E7", "Figure 3 / Proposition 12 — breakpoint events");
    let g = builders::ring(vec![int(6), int(2), int(4), int(3), int(5)]).unwrap();
    let v = 0usize;
    println!(
        "  ring {:?}, agent {v} sweeps x ∈ [0, {}]",
        g.weights(),
        g.weight(v)
    );
    let fam = MisreportFamily::new(g, v);
    let res = sweep(&fam, &SweepConfig::new().with_grid(48).with_refine_bits(25));
    let mut t = Table::new(&["interval", "x range", "pairs (B | C)", "k", "v class"]);
    for (i, iv) in res.intervals.iter().enumerate() {
        let shape = iv
            .shape
            .iter()
            .map(|(b, c)| format!("{b:?}|{c:?}"))
            .collect::<Vec<_>>()
            .join("  ");
        t.row(vec![
            i.to_string(),
            format!("[{:.5}, {:.5}]", iv.lo.to_f64(), iv.hi.to_f64()),
            shape,
            iv.shape.len().to_string(),
            format!("{:?}", iv.focus_class),
        ]);
    }
    t.print();
    // Prop 12-(1): v's class never flips at a breakpoint (C→B only through
    // the α = 1 "Both" state).
    for w in res.intervals.windows(2) {
        let (a, b) = (w[0].focus_class, w[1].focus_class);
        let ok = a == b
            || matches!(a, prs_core::bd::AgentClass::Both)
            || matches!(b, prs_core::bd::AgentClass::Both);
        assert!(ok, "class flipped at a breakpoint: {a:?} → {b:?}");
    }
    println!("  Prop 12-(1): v's class preserved across all breakpoints ✓");
    // Exact breakpoints from the Möbius interval algebra — plus the exact
    // Proposition 12 junction identity: the involved pairs' α-ratios agree
    // at the solved breakpoint.
    for iv in &res.intervals {
        prs_core::deviation::moebius::verify_interval(iv, &res.samples).unwrap();
    }
    println!("  Möbius α-models verified exactly on every interval ✓");
    // Classify each breakpoint event (merge/split) and verify the exact
    // Prop 12 junction α-identity at the solved breakpoint.
    for e in prs_core::deviation::classify_events(&fam, &res) {
        println!(
            "  event at x = {}: {:?}, class preserved: {}, junction α-identity: {}",
            e.x.as_ref().map_or("≈".into(), |q| q.to_string()),
            e.kind,
            e.focus_class_preserved,
            if e.junction_identity_checked {
                "verified exactly"
            } else {
                "n/a"
            },
        );
        assert!(e.focus_class_preserved);
        // Misreport breakpoints are rational: an unsolved one would mean
        // the junction identity failed there.
        assert!(e.x.is_some(), "unsolved breakpoint event {e:?}");
    }
}

/// E8 — Fig. 4 / Lemmas 14 & 20: initial-path case frequencies.
fn e8_case_frequencies() {
    header("E8", "Figure 4 / Lemmas 14+20 — initial split-path cases");
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut total = 0usize;
    for n in [3usize, 4, 5, 6, 8] {
        for g in ring_family(400 + n as u64, 12, n, 1, 12) {
            for mut ctx in SybilContext::for_agents(&g, 0..g.n()) {
                let rep = ctx
                    .classify_initial_path()
                    .expect("Lemmas 14/20: every initial path fits a published case");
                *counts.entry(format!("{:?}", rep.case)).or_default() += 1;
                total += 1;
            }
        }
    }
    let mut t = Table::new(&["case", "count", "share"]);
    for (case, count) in &counts {
        t.row(vec![
            case.clone(),
            count.to_string(),
            format!("{:.1}%", 100.0 * *count as f64 / total as f64),
        ]);
    }
    t.print();
    println!("  every instance classified into a published case (total {total}) ✓");
}

/// E9 — Lemma 9: the honest split is exactly payoff-neutral.
fn e9_lemma9() {
    header("E9", "Lemma 9 — honest split neutrality (exact)");
    let mut ok = 0usize;
    let mut total = 0usize;
    for n in [3usize, 4, 6, 9] {
        for g in ring_family(500 + n as u64, 12, n, 1, 20) {
            for mut ctx in SybilContext::for_agents(&g, 0..g.n()) {
                let (honest, split) = ctx.lemma9_check();
                total += 1;
                if honest == split {
                    ok += 1;
                }
            }
        }
    }
    println!("  U_v = U_v¹ + U_v² exactly on {ok}/{total} (ring, agent) pairs ✓");
    assert_eq!(ok, total);
}

/// E10 — stage lemmas 16/18/22/24 audited along optimal trajectories.
fn e10_stage_audits() {
    header(
        "E10",
        "Stage lemmas — per-stage utility deltas along optimal attacks",
    );
    let cfg = AttackConfig::new()
        .with_grid(20)
        .with_zoom_levels(3)
        .with_keep(2);
    let mut audited = 0usize;
    let mut neutral = 0usize;
    let mut checks_passed = 0usize;
    let mut checks_total = 0usize;
    for n in [4usize, 5, 6] {
        for g in ring_family(600 + n as u64, 8, n, 1, 10) {
            for mut ctx in SybilContext::for_agents(&g, 0..g.n()) {
                let v = ctx.family().agent();
                let out = ctx.best_sybil_split(&cfg);
                let w2_star = g.weight(v) - &out.best.w1;
                match ctx.audit_stages(&out.best.w1, &w2_star) {
                    Some(rep) => {
                        audited += 1;
                        for (_, ok) in &rep.checks {
                            checks_total += 1;
                            if *ok {
                                checks_passed += 1;
                            }
                        }
                        assert!(
                            rep.all_hold(),
                            "stage lemma violated on {:?} v={v}",
                            g.weights()
                        );
                    }
                    None => neutral += 1,
                }
            }
        }
    }
    println!("  {audited} trajectories audited, {neutral} payoff-neutral (Adjusting Technique)");
    println!("  {checks_passed}/{checks_total} lemma inequalities held ✓");
}

/// E11 — Theorem 8: ζ = 2 on rings (upper bound audits + lower bound search).
fn e11_theorem8() {
    header("E11", "Theorem 8 — the tight incentive ratio of two");
    let cfg = AttackConfig::new()
        .with_grid(32)
        .with_zoom_levels(5)
        .with_keep(3);

    // (a) Upper bound: no agent on any instance exceeds 2.
    let mut max_seen = Rational::zero();
    let mut attacks = 0usize;
    for n in [3usize, 4, 5, 6] {
        for g in ring_family(700 + n as u64, 10, n, 1, 16) {
            let rep = check_ring_theorem8(&g, &cfg);
            assert!(rep.upper_bound_holds, "violated on {:?}", g.weights());
            attacks += g.n();
            if rep.max_ratio > max_seen {
                max_seen = rep.max_ratio.clone();
            }
        }
    }
    println!(
        "  (a) upper bound: {attacks} optimized attacks, all ζ_v ≤ 2 ✓ (max seen: {})",
        fmt_q(&max_seen)
    );

    // (b) Lower bound: search + the scale-separated family drive ζ toward 2.
    let mut t = Table::new(&["family", "best ζ found", "weights"]);
    for n in [4usize, 5, 6] {
        let rep = worst_case_search(n, 24, 3, 4242, &cfg, 8);
        assert!(rep.upper_bound_holds);
        t.row(vec![
            format!("search n={n}"),
            format!("{:.6}", rep.best_ratio.to_f64()),
            format!(
                "{:?} (v={})",
                rep.best_weights
                    .iter()
                    .map(|w| w.to_f64())
                    .collect::<Vec<_>>(),
                rep.best_vertex
            ),
        ]);
    }
    for k in [2u32, 4, 6, 8, 10] {
        let g = lower_bound_ring(k);
        // Use the certified (symbolic per-interval) optimizer here: it finds
        // the true per-structure optimum, not just a grid point.
        let out = prs_core::sybil::certified_best_split(&g, LOWER_BOUND_AGENT, 32, 35);
        assert!(out.ratio <= Rational::from_integer(2));
        t.row(vec![
            format!("lower-bound k={k}"),
            format!("{:.6} (certified)", out.ratio.to_f64()),
            format!(
                "{:?} (v={})",
                g.weights().iter().map(|w| w.to_f64()).collect::<Vec<_>>(),
                LOWER_BOUND_AGENT
            ),
        ]);
    }
    t.print();
    println!("  (b) lower bound: best ratios approach 2 as the scale separation grows");
}

/// E12 — the published bound history vs what we measure.
fn e12_bound_history() {
    header(
        "E12",
        "Bound history — empirical max ζ vs published upper bounds",
    );
    let cfg = AttackConfig::new()
        .with_grid(24)
        .with_zoom_levels(4)
        .with_keep(3);
    let mut t = Table::new(&[
        "n",
        "empirical max ζ (search)",
        "[5] 2017",
        "[9] 2019",
        "this paper",
    ]);
    for n in [4usize, 5, 6, 8] {
        let rep = worst_case_search(n, 16, 2, 31337 + n as u64, &cfg, 8);
        t.row(vec![
            n.to_string(),
            format!("{:.6}", rep.best_ratio.to_f64()),
            "4".into(),
            "3".into(),
            "2 (tight)".into(),
        ]);
        assert!(rep.best_ratio <= Rational::from_integer(2));
    }
    t.print();
    println!("  every empirical ratio sits within the tight bound of 2; older bounds are loose ✓");
}

/// E13 — protocol-level Sybil attack in the swarm simulator.
fn e13_protocol_level() {
    header("E13", "Protocol-level view — Sybil attack in a live swarm");
    let cfg = SwarmConfig {
        max_rounds: 2_000_000,
        tol: 1e-12,
        record_trace: false,
    };
    let mut t = Table::new(&[
        "ring",
        "agent",
        "honest U",
        "attacked U",
        "protocol gain",
        "mechanism ζ",
    ]);
    for weights in [
        vec![6i64, 1, 4, 2, 5],
        vec![1, 8, 1, 8],
        vec![5, 1, 3, 1, 7, 2],
    ] {
        let ring = RingInstance::from_integers(&weights).unwrap();
        let g = ring.graph();
        let v = 0usize;
        let out = ring.sybil_attack(v, &AttackConfig::default());
        let w1 = out.best.w1.to_f64();
        let w2 = g.weight(v).to_f64() - w1;

        let mut honest_swarm = SoaSwarm::new(g);
        let honest = honest_swarm.run(&cfg);
        let mut sybil_swarm = SoaSwarm::with_strategies(g, |a| {
            if a == v {
                Strategy::Sybil { w1, w2 }
            } else {
                Strategy::Honest
            }
        });
        let attacked = sybil_swarm.run(&cfg);
        let gain = attacked.utilities[v] / honest.utilities[v];
        assert!(gain <= 2.0 + 1e-6, "protocol-level Theorem 8 violated");
        t.row(vec![
            format!("{weights:?}"),
            v.to_string(),
            format!("{:.4}", honest.utilities[v]),
            format!("{:.4}", attacked.utilities[v]),
            format!("{:.4}×", gain),
            format!("{:.4}", out.ratio_f64()),
        ]);
    }
    t.print();
    println!("  swarm-level gains match the mechanism-level ζ and respect the cap of 2 ✓");
}

/// E14 — the conclusion's conjecture: ζ ≤ 2 on general networks.
///
/// Certified lower bounds from the general attack search (neighbor
/// partitions × weight simplex); any value above 2 would refute the
/// conjecture. None has been found.
fn e14_general_conjecture() {
    use prs_core::bd::par::{par_map_indexed, worker_threads};
    use prs_core::sybil::{best_general_sybil, GeneralAttackConfig};
    header(
        "E14",
        "Conjecture — incentive ratio ≤ 2 on general networks",
    );
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let cfg = GeneralAttackConfig::new().with_grid(10).with_max_copies(3);
    let mut t = Table::new(&["family", "instances", "attacks", "max ζ lower bound"]);
    let mut push_family = |name: &str, graphs: Vec<Graph>| {
        // Enumerate the attack sites first, then fan the independent
        // optimizations out over scoped workers; results come back in site
        // order, so the aggregation below is identical to a sequential run.
        let sites: Vec<(usize, usize)> = graphs
            .iter()
            .enumerate()
            .flat_map(|(gi, g)| {
                (0..g.n().min(3))
                    .filter(|&v| g.degree(v) >= 2) // Definition 7 needs m ≥ 2 ≤ d_v
                    .map(move |v| (gi, v))
            })
            .collect();
        let ratios = par_map_indexed(sites.len(), worker_threads(sites.len()), |i| {
            let (gi, v) = sites[i];
            best_general_sybil(&graphs[gi], v, &cfg).ratio
        });
        let mut max_ratio = Rational::zero();
        for (&(gi, v), ratio) in sites.iter().zip(ratios) {
            assert!(
                ratio <= Rational::from_integer(2),
                "CONJECTURE REFUTED on {name}: ζ = {ratio} at v={v}, {:?}",
                graphs[gi].weights()
            );
            if ratio > max_ratio {
                max_ratio = ratio;
            }
        }
        t.row(vec![
            name.into(),
            graphs.len().to_string(),
            sites.len().to_string(),
            format!("{:.6}", max_ratio.to_f64()),
        ]);
    };

    let mut rng = StdRng::seed_from_u64(1414);
    push_family(
        "stars (center attacks)",
        (0..4)
            .map(|i| {
                builders::star((0..5).map(|j| int(1 + ((i + j) % 4) as i64)).collect()).unwrap()
            })
            .collect(),
    );
    push_family(
        "complete K4/K5",
        vec![
            builders::complete(vec![int(3), int(1), int(2), int(5)]).unwrap(),
            builders::complete(vec![int(1), int(1), int(8), int(2), int(4)]).unwrap(),
        ],
    );
    push_family(
        "random trees n=7",
        (0..4)
            .map(|_| prs_core::graph::random::random_tree(&mut rng, 7, 1, 9))
            .collect(),
    );
    push_family(
        "random connected n=7",
        (0..4)
            .map(|_| prs_core::graph::random::random_connected(&mut rng, 7, 0.4, 1, 9))
            .collect(),
    );
    push_family("rings n=5 (sanity)", ring_family(1400, 4, 5, 1, 12));
    t.print();
    println!("  no certified lower bound exceeded 2 — consistent with the conjecture ✓");
}

/// E15 — exhaustive audit of every small integer-weight ring.
///
/// All rings with n ∈ {3, 4} and weights in 1..=W (up to rotation the space
/// is slightly smaller; we simply take all tuples). Every agent attacks;
/// Theorem 8 must hold on each of the thousands of instances — this is the
/// closest a finite machine gets to the theorem's ∀-quantifier.
fn e15_exhaustive_small_rings() {
    header(
        "E15",
        "Exhaustive small rings — Theorem 8 with no sampling gaps",
    );
    let cfg = AttackConfig::new()
        .with_grid(12)
        .with_zoom_levels(2)
        .with_keep(2);
    let mut t = Table::new(&[
        "n",
        "W",
        "instances",
        "attacks",
        "max ζ",
        "argmax weights",
        "agent",
    ]);
    for (n, w_max) in [(3usize, 6i64), (4, 4)] {
        let rep = prs_core::sybil::exhaustive_ring_audit(n, w_max, &cfg, 8);
        assert!(
            rep.upper_bound_holds,
            "Theorem 8 violated in the exhaustive grid"
        );
        t.row(vec![
            n.to_string(),
            w_max.to_string(),
            rep.instances.to_string(),
            rep.attacks.to_string(),
            format!("{:.6}", rep.max_ratio.to_f64()),
            format!("{:?}", rep.argmax_weights),
            rep.argmax_vertex.to_string(),
        ]);
    }
    t.print();
    println!("  every instance of the full grid satisfies ζ_v ≤ 2 ✓");
}

/// E16 — the Eisenberg–Gale cross-validation: a convex-programming solver,
/// knowing nothing of bottlenecks, reproduces the Proposition 6 utilities.
fn e16_eisenberg_gale() {
    header(
        "E16",
        "Eisenberg–Gale program — third derivation of the equilibrium",
    );
    use prs_core::eg::{solve, EgConfig};
    let mut t = Table::new(&[
        "family",
        "instances",
        "max rel. utility gap",
        "median iters",
    ]);
    for (name, graphs) in [
        ("rings n=5", ring_family(1600, 6, 5, 1, 9)),
        ("rings n=8", ring_family(1601, 4, 8, 1, 9)),
        (
            "random graphs n=7",
            prs_bench::connected_family(1602, 4, 7, 0.35),
        ),
    ] {
        let mut max_gap = 0f64;
        let mut iters: Vec<usize> = Vec::new();
        let count = graphs.len();
        for g in &graphs {
            let bd = decompose(g).unwrap();
            let want: Vec<f64> = bd.utilities(g).iter().map(|u| u.to_f64()).collect();
            let sol = solve(g, &EgConfig::default());
            iters.push(sol.iters);
            for (got, want) in sol.utilities.iter().zip(&want) {
                max_gap = max_gap.max((got - want).abs() / (1.0 + want.abs()));
            }
        }
        iters.sort_unstable();
        assert!(max_gap < 1e-2, "EG and BD disagree: {max_gap}");
        t.row(vec![
            name.into(),
            count.to_string(),
            format!("{max_gap:.2e}"),
            iters[iters.len() / 2].to_string(),
        ]);
    }
    t.print();
    println!("  mirror descent on Σ w·log U reproduces the BD utilities ✓");
    println!("  (the Wu–Zhang equilibrium ⇔ proportional fairness equivalence, executable)");
}

/// E17 — extension: does withholding weight ever help a Sybil attacker?
///
/// Definition 7 forces `w₁ + w₂ = w_v`; relaxing to `≤` never improved the
/// payoff on any audited instance — the constraint is WLOG for the
/// attacker, as the Theorem 10 monotonicity intuition predicts.
fn e17_withholding() {
    use prs_core::sybil::best_split_with_withholding;
    header(
        "E17",
        "Extension — Sybil + withholding (relaxed budget w₁+w₂ ≤ w_v)",
    );
    let mut audited = 0usize;
    let mut helped = 0usize;
    for n in [4usize, 5, 6] {
        for g in ring_family(1700 + n as u64, 6, n, 1, 10) {
            for v in 0..g.n().min(3) {
                let out = best_split_with_withholding(&g, v, 12);
                audited += 1;
                if out.withholding_helped {
                    helped += 1;
                }
            }
        }
    }
    // The ζ → 2 family too.
    for k in [4u32, 8] {
        let g = prs_core::sybil::theorem8::lower_bound_ring(k);
        let out = best_split_with_withholding(&g, prs_core::sybil::theorem8::LOWER_BOUND_AGENT, 16);
        audited += 1;
        if out.withholding_helped {
            helped += 1;
        }
    }
    println!("  {audited} instances audited; withholding strictly helped on {helped} ✓ (expect 0)");
    assert_eq!(helped, 0);
}

/// E18 — extension: coalition of two Sybil attackers on one ring.
fn e18_collusion() {
    use prs_core::sybil::best_collusion;
    header(
        "E18",
        "Extension — two-agent Sybil collusion (coalition ratio)",
    );
    let mut t = Table::new(&[
        "ring",
        "agents",
        "joint honest",
        "best joint",
        "coalition ratio",
    ]);
    let mut max_ratio = Rational::zero();
    for g in ring_family(1800, 5, 5, 1, 10) {
        let (u, v) = (0usize, 2usize);
        let out = best_collusion(&g, u, v, 10);
        assert!(
            out.coalition_ratio <= Rational::from_integer(2),
            "coalition beat 2!"
        );
        if out.coalition_ratio > max_ratio {
            max_ratio = out.coalition_ratio.clone();
        }
        t.row(vec![
            format!(
                "{:?}",
                g.weights().iter().map(|w| w.to_f64()).collect::<Vec<_>>()
            ),
            format!("({u},{v})"),
            format!("{:.4}", out.honest_joint.to_f64()),
            format!("{:.4}", out.best_joint.to_f64()),
            format!("{:.4}", out.coalition_ratio.to_f64()),
        ]);
    }
    // The lower-bound family with a second colluder.
    let g = prs_core::sybil::theorem8::lower_bound_ring(6);
    let out = best_collusion(&g, 1, 3, 12);
    assert!(out.coalition_ratio <= Rational::from_integer(2));
    t.row(vec![
        "lower-bound k=6".into(),
        "(1,3)".into(),
        format!("{:.4}", out.honest_joint.to_f64()),
        format!("{:.4}", out.best_joint.to_f64()),
        format!("{:.4}", out.coalition_ratio.to_f64()),
    ]);
    if out.coalition_ratio > max_ratio {
        max_ratio = out.coalition_ratio;
    }
    t.print();
    println!(
        "  max coalition ratio observed: {:.4} — two colluding attackers stayed within the
  single-attacker bound of 2 on every audited instance",
        max_ratio.to_f64()
    );
}
