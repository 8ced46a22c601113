//! Experiment harness: regenerates every figure and theorem-level claim of
//! the paper (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
//! for recorded results).
//!
//! ```text
//! cargo run --release -p prs-bench --bin experiments           # all
//! cargo run --release -p prs-bench --bin experiments e11       # one
//! cargo run --release -p prs-bench --bin experiments bench     # BENCH_seed.json
//! ```
//!
//! The `bench` target times the exact engine against the two-tier
//! (float-prefiltered) engine and writes the measurements plus the
//! flow-instrumentation counters to `BENCH_seed.json` (override the path
//! with the `BENCH_JSON` environment variable).

use prs_bench::{fmt_q, prop11_showcase, ring_family, Table};
use prs_core::prelude::*;
use prs_core::sybil::stages::audit_stages;
use prs_core::sybil::theorem8::{lower_bound_ring, LOWER_BOUND_AGENT};
use prs_core::RingInstance;

/// Counting allocator: the `swarm_scale` bench asserts the struct-of-arrays
/// engine's steady-state round path performs **zero** heap allocations, on
/// the real allocator rather than by code inspection. One relaxed add per
/// allocation; timing sections snapshot the counter outside their windows.
mod alloc_audit {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    // SAFETY: defers every operation to `System`; the counter is a relaxed
    // atomic with no effect on the returned pointers.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, l: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(l)
        }
        unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
            System.dealloc(p, l)
        }
        unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.realloc(p, l, new_size)
        }
        unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(l)
        }
    }

    pub fn count() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

#[global_allocator]
static GLOBAL: alloc_audit::CountingAlloc = alloc_audit::CountingAlloc;

/// The pre-refactor per-agent swarm engine, frozen as the `swarm_scale`
/// baseline (same shape as the executable spec in
/// `tests/swarm_soa_equivalence.rs`): one heap `Vec` per agent per lane,
/// and a per-round flat `sends` vector routed by binary search — the
/// allocation and pointer-chasing profile the struct-of-arrays refactor
/// removed. Honest-only, which is all the scale bench exercises.
mod legacy_swarm {
    use prs_core::prelude::Graph;

    struct Agent {
        capacity: f64,
        peers: Vec<usize>,
        received: Vec<f64>,
        outgoing: Vec<f64>,
    }

    impl Agent {
        fn utility(&self) -> f64 {
            self.received.iter().sum()
        }
    }

    pub struct LegacySwarm {
        agents: Vec<Agent>,
        prev_utilities: Vec<f64>,
    }

    impl LegacySwarm {
        pub fn new(g: &Graph) -> Self {
            let w = g.weights_f64();
            let agents: Vec<Agent> = (0..g.n())
                .map(|v| {
                    let peers = g.neighbors(v).to_vec();
                    let d = peers.len().max(1) as f64;
                    Agent {
                        capacity: w[v],
                        received: vec![0.0; peers.len()],
                        outgoing: vec![w[v] / d; peers.len()],
                        peers,
                    }
                })
                .collect();
            let n = agents.len();
            let mut s = LegacySwarm {
                agents,
                prev_utilities: vec![0.0; n],
            };
            s.deliver();
            s
        }

        fn deliver(&mut self) {
            for v in 0..self.agents.len() {
                self.prev_utilities[v] = self.agents[v].utility();
            }
            let sends: Vec<(usize, usize, f64)> = self
                .agents
                .iter()
                .enumerate()
                .flat_map(|(v, a)| {
                    a.peers
                        .iter()
                        .zip(&a.outgoing)
                        .map(move |(&u, &amt)| (v, u, amt))
                        .collect::<Vec<_>>()
                })
                .collect();
            for a in &mut self.agents {
                a.received.iter_mut().for_each(|r| *r = 0.0);
            }
            for (v, u, amt) in sends {
                let slot = self.agents[u]
                    .peers
                    .binary_search(&v)
                    .expect("peer not in list");
                self.agents[u].received[slot] += amt;
            }
        }

        fn step(&mut self) {
            for a in &mut self.agents {
                let total: f64 = a.received.iter().sum();
                if total > 0.0 {
                    let scale = a.capacity / total;
                    for (out, r) in a.outgoing.iter_mut().zip(&a.received) {
                        *out = r * scale;
                    }
                } else {
                    let d = a.peers.len().max(1) as f64;
                    for out in a.outgoing.iter_mut() {
                        *out = a.capacity / d;
                    }
                }
            }
            self.deliver();
        }

        fn averaged_utilities(&self) -> Vec<f64> {
            self.agents
                .iter()
                .zip(&self.prev_utilities)
                .map(|(a, p)| 0.5 * (a.utility() + p))
                .collect()
        }

        /// Exactly the pre-refactor `Swarm::run` round: the cycle-averaged
        /// before/after snapshots (one heap `Vec` each) feeding the
        /// convergence delta, then the respond/deliver step.
        pub fn run_rounds(&mut self, rounds: usize) -> f64 {
            let mut delta = 0.0f64;
            for _ in 0..rounds {
                let before_avg = self.averaged_utilities();
                self.step();
                let after_avg = self.averaged_utilities();
                delta = before_avg
                    .iter()
                    .zip(&after_avg)
                    .map(|(a, b)| (a - b).abs() / (1.0 + b.abs()))
                    .fold(0.0, f64::max);
            }
            delta
        }

        pub fn utility(&self, v: usize) -> f64 {
            self.agents[v].utility()
        }
    }
}

fn main() {
    let mut which: Vec<String> = std::env::args().skip(1).collect();
    // `--quick` (or `quick`): smaller instances and fewer reps — the CI
    // smoke configuration. Affects only the `bench` target.
    let quick = which.iter().any(|w| w == "--quick" || w == "quick");
    which.retain(|w| w != "--quick" && w != "quick");
    let run = |name: &str| which.is_empty() || which.iter().any(|w| w == name || w == "all");

    if run("e1") {
        e1_figure1();
    }
    if run("e2") {
        e2_prop3_invariants();
    }
    if run("e3") {
        e3_allocation_prop6();
    }
    if run("e4") {
        e4_dynamics_convergence();
    }
    if run("e5") {
        e5_alpha_curves();
    }
    if run("e6") {
        e6_theorem10();
    }
    if run("e7") {
        e7_breakpoint_events();
    }
    if run("e8") {
        e8_case_frequencies();
    }
    if run("e9") {
        e9_lemma9();
    }
    if run("e10") {
        e10_stage_audits();
    }
    if run("e11") {
        e11_theorem8();
    }
    if run("e12") {
        e12_bound_history();
    }
    if run("e13") {
        e13_protocol_level();
    }
    if run("e14") {
        e14_general_conjecture();
    }
    if run("e15") {
        e15_exhaustive_small_rings();
    }
    if run("e16") {
        e16_eisenberg_gale();
    }
    if run("e17") {
        e17_withholding();
    }
    if run("e18") {
        e18_collusion();
    }
    if run("bench") {
        bench_two_tier(quick);
    }
}

fn header(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Median wall-clock over `reps` runs of `f`, in milliseconds.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    times[times.len() / 2]
}

/// `swarm_scale`: the struct-of-arrays engine at protocol scale.
///
/// Measures rounds/sec and ns per agent-round on rings of 10³–10⁶ agents
/// (10³–10⁴ under `--quick`), with and without steady per-round membership
/// churn (one leave + one recycled rejoin per round). The no-churn pass
/// first audits the steady-state round path against the counting global
/// allocator — zero heap allocations, asserted — and the sizes the frozen
/// pre-refactor engine can reach in reasonable time record the per-agent
/// throughput win in `agents_per_round_speedup`.
fn bench_swarm_scale(quick: bool, reps: usize) -> Vec<String> {
    use prs_core::p2psim::SoaSwarm;

    let sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    let legacy_max = if quick { 10_000 } else { 100_000 };

    let big_ring = |n: usize| -> Graph {
        let weights: Vec<Rational> = (0..n).map(|v| int((v % 50 + 1) as i64)).collect();
        prs_core::graph::builders::ring(weights).expect("scale ring builds")
    };
    // Enough rounds to dominate timer noise without letting the small sizes
    // run forever; every size uses the same formula so rows are comparable.
    let rounds_for = |n: usize| (4_000_000usize / n).clamp(4, 512);

    let mut t = Table::new(&[
        "agents",
        "churn",
        "rounds",
        "ns/agent·round",
        "rounds/sec",
        "vs legacy",
    ]);
    let mut rows: Vec<String> = Vec::new();
    for &n in sizes {
        let g = big_ring(n);
        let rounds = rounds_for(n);

        // --- SoA, no churn: the zero-allocation steady-state path -------
        // The bare round path is audited against the counting allocator;
        // the timed passes then go through `run` so the convergence
        // bookkeeping (which the legacy loop also pays, with heap
        // snapshots) is priced into both engines.
        let run_cfg = prs_core::p2psim::SwarmConfig {
            max_rounds: rounds,
            tol: 0.0,
            record_trace: false,
        };
        let mut soa = SoaSwarm::new(&g);
        soa.step();
        soa.step(); // warm-up: scratch lanes sized, caches touched
        let allocs_before = alloc_audit::count();
        for _ in 0..rounds {
            soa.step();
        }
        let steady_allocs = alloc_audit::count() - allocs_before;
        assert_eq!(
            steady_allocs, 0,
            "steady-state SoA round allocated on the heap at n={n}"
        );
        let soa_ms = median_ms(reps, || {
            let m = soa.run(&run_cfg);
            assert_eq!(m.rounds, rounds, "scale run converged early at n={n}");
        });
        let soa_ns_per_agent = soa_ms * 1e6 / (n as f64 * rounds as f64);
        let soa_rounds_per_sec = rounds as f64 / (soa_ms / 1e3);

        // --- legacy baseline (sizes it can reach) ------------------------
        let legacy = (n <= legacy_max).then(|| {
            let mut leg = legacy_swarm::LegacySwarm::new(&g);
            // Mirror the SoA warm-up *and* its allocation-audit pass so the
            // engines sit at identical round counts for the spot-check.
            leg.run_rounds(2 + rounds);
            let leg_ms = median_ms(reps, || std::hint::black_box(leg.run_rounds(rounds)));
            // Same protocol, same trajectory: spot-check agent 0 agrees to
            // float tolerance after identical round counts.
            assert!(
                (leg.utility(0) - soa.utilities()[0]).abs() < 1e-6,
                "legacy and SoA engines disagree at n={n}"
            );
            leg_ms * 1e6 / (n as f64 * rounds as f64)
        });
        let speedup = legacy.map(|leg_ns| leg_ns / soa_ns_per_agent);
        t.row(vec![
            n.to_string(),
            "no".to_string(),
            rounds.to_string(),
            format!("{soa_ns_per_agent:.2}"),
            format!("{soa_rounds_per_sec:.1}"),
            speedup.map_or("-".to_string(), |s| format!("{s:.1}×")),
        ]);
        let legacy_json = match (legacy, speedup) {
            (Some(leg_ns), Some(s)) => format!(
                ", \"legacy_ns_per_agent_round\": {leg_ns:.2}, \
                 \"agents_per_round_speedup\": {s:.2}"
            ),
            _ => String::new(),
        };
        rows.push(format!(
            concat!(
                "    {{\"agents\": {}, \"churn\": false, \"rounds\": {}, ",
                "\"ns_per_agent_round\": {:.3}, \"rounds_per_sec\": {:.2}, ",
                "\"steady_state_allocs\": {}{}}}"
            ),
            n, rounds, soa_ns_per_agent, soa_rounds_per_sec, steady_allocs, legacy_json,
        ));

        // --- SoA under churn: one leave + one recycled rejoin per round --
        let mut churned = SoaSwarm::new(&g);
        churned.step();
        churned.step();
        let mut victim = n / 2;
        let mut churn_round = |s: &mut SoaSwarm| {
            let peers = s.peers(victim).to_vec();
            let capacity = s.capacity(victim);
            s.leave(victim).expect("churn victim is live");
            let slot = s.join(capacity, &peers).expect("churn rejoin");
            debug_assert_eq!(slot, victim, "free list must recycle the slot");
            s.step();
            victim = (victim + 8191) % n; // 8191 is prime: sweeps every slot
        };
        let churn_ms = median_ms(reps, || {
            for _ in 0..rounds {
                churn_round(&mut churned);
            }
        });
        let churn_ns_per_agent = churn_ms * 1e6 / (n as f64 * rounds as f64);
        let churn_rounds_per_sec = rounds as f64 / (churn_ms / 1e3);
        t.row(vec![
            n.to_string(),
            "yes".to_string(),
            rounds.to_string(),
            format!("{churn_ns_per_agent:.2}"),
            format!("{churn_rounds_per_sec:.1}"),
            "-".to_string(),
        ]);
        rows.push(format!(
            concat!(
                "    {{\"agents\": {}, \"churn\": true, \"events_per_round\": 2, ",
                "\"rounds\": {}, \"ns_per_agent_round\": {:.3}, ",
                "\"rounds_per_sec\": {:.2}}}"
            ),
            n, rounds, churn_ns_per_agent, churn_rounds_per_sec,
        ));
    }
    println!("  swarm_scale (struct-of-arrays engine vs frozen per-agent baseline):");
    t.print();
    rows
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
            let mut eng = F64Engine::new(&g);
            let rep = eng.run_until_close(&target, 1e-8, 1_000_000);
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
        "  largest utility gap across a localized breakpoint: {:.3e} (continuity certificate)",
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
        prs_core::deviation::moebius::verify_interval(&fam, iv).unwrap();
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
            for v in 0..g.n() {
                let rep = classify_initial_path(&g, v);
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
            for v in 0..g.n() {
                let (honest, split) = prs_core::sybil::split::lemma9_check(&g, v);
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
            for v in 0..g.n() {
                let out = best_sybil_split(&g, v, &cfg);
                let w2_star = g.weight(v) - &out.best.w1;
                match audit_stages(&g, v, &out.best.w1, &w2_star) {
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

        let mut honest_swarm = Swarm::new(g);
        let honest = honest_swarm.run(&cfg);
        let mut sybil_swarm = Swarm::with_strategies(g, |a| {
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

/// `bench` — the Rational oracle (`decompose_exact`) vs the production
/// two-tier engine (float proposal, scaled-integer certification) on the
/// decomposition hot path, plus the flow-instrumentation counters, written
/// to `BENCH_seed.json`.
///
/// Both engines return bit-identical decompositions (the float tier only
/// proposes; an exact pass certifies — see DESIGN.md §3.1), so the timings
/// compare two routes to the same answer. The "sybil" rows time the
/// decomposition of split rings — the inner loop of every attack optimizer.
///
/// A second set of "session workloads" times whole sweeps and attack
/// optimizations with warm-started [`DecompositionSession`]s (the default)
/// against cold runs (`cache_capacity(0)`), asserting identical results and
/// recording the `session_hits`/`session_misses`/`session_warm_starts`
/// counter deltas.
fn bench_two_tier(quick: bool) {
    use prs_core::bd::{decompose as decompose_two_tier, decompose_exact};
    use prs_core::flow::stats;
    use prs_core::sybil::SybilSplitFamily;
    use std::time::Instant;

    header(
        "bench",
        "two-tier vs exact decomposition engine → BENCH_seed.json",
    );

    let reps = std::env::var("BENCH_REPS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(if quick { 3 } else { 7 });

    // The measured workloads: rings (the paper's domain, the Criterion
    // `decompose` bench shape) and the split rings the Sybil optimizer
    // decomposes at every payoff evaluation.
    let ring_ns: &[usize] = if quick { &[12, 16] } else { &[16, 32, 48, 64] };
    let split_ns: &[usize] = if quick { &[16] } else { &[32, 64] };
    let mut workloads: Vec<(String, Graph)> = Vec::new();
    for &n in ring_ns {
        let ring = ring_family(9000 + n as u64, 1, n, 1, 50).pop().unwrap();
        workloads.push((format!("ring/n={n}"), ring));
    }
    for &n in split_ns {
        let ring = ring_family(9000 + n as u64, 1, n, 1, 50).pop().unwrap();
        let fam = SybilSplitFamily::new(ring.clone(), 0);
        let w1 = ring.weight(0) * &ratio(1, 3);
        let w2 = ring.weight(0) - &w1;
        let (split, _, _) = fam.path_at(&w1, &w2);
        workloads.push((format!("sybil-split/n={n}"), split));
    }

    let mut t = Table::new(&[
        "instance",
        "exact ms",
        "two-tier ms",
        "speedup",
        "fast-path hits",
        "fallbacks",
    ]);
    let mut rows: Vec<String> = Vec::new();
    for (name, g) in &workloads {
        let want = decompose_exact(g).unwrap();
        let got = decompose_two_tier(g).unwrap();
        assert_eq!(want.shape(), got.shape(), "{name}: engines disagree");
        let exact_ms = median_ms(reps, || decompose_exact(g).unwrap());
        let before = stats::snapshot();
        let two_tier_ms = median_ms(reps, || decompose_two_tier(g).unwrap());
        let delta = stats::snapshot().since(&before);
        let speedup = exact_ms / two_tier_ms;
        t.row(vec![
            name.clone(),
            format!("{exact_ms:.3}"),
            format!("{two_tier_ms:.3}"),
            format!("{speedup:.2}×"),
            delta.fast_path_hits.to_string(),
            delta.fast_path_fallbacks.to_string(),
        ]);
        rows.push(format!(
            concat!(
                "    {{\"instance\": \"{}\", \"n\": {}, \"exact_ms\": {:.4}, ",
                "\"two_tier_ms\": {:.4}, \"speedup\": {:.3}, \"stats\": {}}}"
            ),
            name,
            g.n(),
            exact_ms,
            two_tier_ms,
            speedup,
            delta.to_json(),
        ));
    }
    t.print();

    // --- certification engines: checked-i128 fast tier vs BigInt --------
    //
    // The session's warm certification solves Hall-style bipartite
    // networks (source → left layer → right layer → sink) whose integer
    // caps are the p·D-scaled weights. The same networks run here on both
    // exact engines — results asserted bit-identical — so the speedup
    // column is the pure representation win of i128 words over BigInt
    // limbs on the certification hot path. Shipped-scale caps (~2⁴⁰) must
    // never promote.
    let cert_engine_rows: Vec<String> = {
        use prs_core::flow::{CapI128, CapInt, NetworkI128, NetworkInt};
        use prs_core::numeric::BigInt;
        let cert_ns: &[usize] = if quick { &[16, 32] } else { &[32, 64, 128] };
        let mut tc = Table::new(&[
            "network",
            "bigint ms",
            "i128 ms",
            "speedup",
            "i128 max-flows",
            "promotions",
        ]);
        let mut cert_rows: Vec<String> = Vec::new();
        for &n in cert_ns {
            // Deterministic ~2^40 caps: shipped scale after p·D clearing.
            let cap = |v: usize| -> i128 { (1 << 40) + (v as i128 * 7_777_777) % (1 << 39) + 1 };
            let (s, t_sink) = (0usize, 1usize);
            let left = |v: usize| 2 + v;
            let right = |v: usize| 2 + n + v;
            let build_i128 = || {
                let mut net = NetworkI128::new(2 + 2 * n);
                for v in 0..n {
                    net.add_edge(s, left(v), CapI128::Finite(cap(v)));
                    net.add_edge(left(v), right(v), CapI128::Infinite);
                    net.add_edge(left(v), right((v + 1) % n), CapI128::Infinite);
                    net.add_edge(right(v), t_sink, CapI128::Finite(cap(n + v)));
                }
                net
            };
            let build_int = || {
                let mut net = NetworkInt::new(2 + 2 * n);
                for v in 0..n {
                    net.add_edge(s, left(v), CapInt::Finite(BigInt::from(cap(v))));
                    net.add_edge(left(v), right(v), CapInt::Infinite);
                    net.add_edge(left(v), right((v + 1) % n), CapInt::Infinite);
                    net.add_edge(right(v), t_sink, CapInt::Finite(BigInt::from(cap(n + v))));
                }
                net
            };
            let fast_flow = {
                let mut net = build_i128();
                net.max_flow(s, t_sink)
            };
            let slow_flow = {
                let mut net = build_int();
                net.max_flow(s, t_sink)
            };
            assert_eq!(
                BigInt::from(fast_flow),
                slow_flow,
                "cert engines disagree at n={n}"
            );
            let int_ms = median_ms(reps, || {
                let mut net = build_int();
                net.max_flow(s, t_sink)
            });
            let before = stats::snapshot();
            let i128_ms = median_ms(reps, || {
                let mut net = build_i128();
                net.max_flow(s, t_sink)
            });
            let delta = stats::snapshot().since(&before);
            assert_eq!(
                delta.i128_promotions, 0,
                "shipped-scale caps promoted at n={n}"
            );
            let speedup = int_ms / i128_ms;
            tc.row(vec![
                format!("hall-bipartite/n={n}"),
                format!("{int_ms:.3}"),
                format!("{i128_ms:.3}"),
                format!("{speedup:.2}×"),
                delta.i128_max_flows.to_string(),
                delta.i128_promotions.to_string(),
            ]);
            cert_rows.push(format!(
                concat!(
                    "    {{\"network\": \"hall-bipartite/n={}\", \"bigint_ms\": {:.4}, ",
                    "\"i128_ms\": {:.4}, \"speedup\": {:.3}, \"i128_max_flows\": {}, ",
                    "\"i128_promotions\": {}}}"
                ),
                n, int_ms, i128_ms, speedup, delta.i128_max_flows, delta.i128_promotions,
            ));
        }
        tc.print();
        cert_rows
    };

    // One end-to-end number: a full attack optimization (whose inner loop is
    // thousands of split-ring decompositions) under the two-tier engine.
    let attack_n = if quick { 12 } else { 32 };
    let ring = ring_family(9000 + attack_n as u64, 1, attack_n, 1, 50)
        .pop()
        .unwrap();
    let cfg = AttackConfig::new()
        .with_grid(12)
        .with_zoom_levels(2)
        .with_keep(2);
    let before = stats::snapshot();
    let attack_ms = median_ms(3, || best_sybil_split(&ring, 0, &cfg));
    let attack_stats = stats::snapshot().since(&before);
    println!("  end-to-end Sybil attack (n={attack_n}, two-tier): {attack_ms:.1} ms/optimization");

    // --- session workloads: warm-started sessions vs cold per-call runs ---
    //
    // "cold" runs the same two-tier per-round engine with warm starts and
    // the shape cache disabled, so the delta isolates exactly what the
    // session machinery buys. Results are asserted identical first.
    let mut session_rows: Vec<String> = Vec::new();
    let mut ts = Table::new(&[
        "workload",
        "cold ms",
        "session ms",
        "speedup",
        "hits",
        "misses",
        "warm-starts",
    ]);
    let mut push_session_row =
        |name: &str, cold_ms: f64, session_ms: f64, delta: &prs_core::flow::stats::FlowStats| {
            let speedup = cold_ms / session_ms;
            ts.row(vec![
                name.to_string(),
                format!("{cold_ms:.3}"),
                format!("{session_ms:.3}"),
                format!("{speedup:.2}×"),
                delta.session_hits.to_string(),
                delta.session_misses.to_string(),
                delta.session_warm_starts.to_string(),
            ]);
            session_rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"cold_ms\": {:.4}, \"session_ms\": {:.4}, ",
                    "\"speedup\": {:.3}, \"session_hits\": {}, \"session_misses\": {}, ",
                    "\"session_warm_starts\": {}}}"
                ),
                name,
                cold_ms,
                session_ms,
                speedup,
                delta.session_hits,
                delta.session_misses,
                delta.session_warm_starts,
            ));
        };

    // Misreport sweeps: the grid + bisection passes share one session pool.
    let sweep_ns: &[usize] = if quick { &[12] } else { &[16, 32] };
    let sweep_grid = if quick { 24 } else { 48 };
    for &n in sweep_ns {
        let ring = ring_family(9100 + n as u64, 1, n, 1, 50).pop().unwrap();
        let fam = MisreportFamily::new(ring, 0);
        let cold_cfg = SweepConfig::new()
            .with_grid(sweep_grid)
            .with_refine_bits(20)
            .with_cache_capacity(0);
        let session_cfg = SweepConfig::new()
            .with_grid(sweep_grid)
            .with_refine_bits(20);
        let cold = sweep(&fam, &cold_cfg);
        let warm = sweep(&fam, &session_cfg);
        assert_eq!(
            cold.samples.len(),
            warm.samples.len(),
            "sweep n={n}: sample counts differ"
        );
        for (c, w) in cold.samples.iter().zip(&warm.samples) {
            assert_eq!((&c.x, &c.alpha, &c.utility), (&w.x, &w.alpha, &w.utility));
            assert_eq!(c.class, w.class, "sweep n={n}: class differs at x={}", c.x);
        }
        let cold_ms = median_ms(reps, || sweep(&fam, &cold_cfg));
        let before = stats::snapshot();
        let session_ms = median_ms(reps, || sweep(&fam, &session_cfg));
        let delta = stats::snapshot().since(&before);
        push_session_row(
            &format!("misreport-sweep/n={n}"),
            cold_ms,
            session_ms,
            &delta,
        );
    }

    // Sybil grids: one pool across every zoom level of the optimizer.
    let sybil_ns: &[usize] = if quick { &[8] } else { &[12, 16] };
    for &n in sybil_ns {
        let ring = ring_family(9200 + n as u64, 1, n, 1, 50).pop().unwrap();
        let cold_cfg = AttackConfig::new()
            .with_grid(24)
            .with_zoom_levels(3)
            .with_keep(2)
            .with_cache_capacity(0);
        let session_cfg = AttackConfig::new()
            .with_grid(24)
            .with_zoom_levels(3)
            .with_keep(2);
        let cold = best_sybil_split(&ring, 0, &cold_cfg);
        let warm = best_sybil_split(&ring, 0, &session_cfg);
        assert_eq!(cold.ratio, warm.ratio, "sybil n={n}: ratios differ");
        assert_eq!(cold.best.w1, warm.best.w1, "sybil n={n}: splits differ");
        let cold_ms = median_ms(reps, || best_sybil_split(&ring, 0, &cold_cfg));
        let before = stats::snapshot();
        let session_ms = median_ms(reps, || best_sybil_split(&ring, 0, &session_cfg));
        let delta = stats::snapshot().since(&before);
        push_session_row(&format!("sybil-grid/n={n}"), cold_ms, session_ms, &delta);
    }
    ts.print();

    // --- churn workloads: incremental delta serving vs per-event cold ----
    //
    // The stream-of-mutations access pattern (ISSUE 7): a long-lived
    // session owning its instance absorbs Zipf-distributed single-weight
    // re-reports and join/leave edge churn through `apply`, while the cold
    // baseline re-decomposes every mutated graph from scratch with the
    // same two-tier engine. A verification pass first replays each script
    // asserting per-event bit-identity with cold and tallying the serving
    // tiers; the no-op probe additionally asserts the `Unchanged` tier
    // answers with **zero** flow invocations. The shard row drains the
    // same weight scripts through a `ShardPool`'s per-shard delta queues.
    let mut churn_rows: Vec<String> = Vec::new();
    let churn_stats_json: String;
    {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let churn_window = stats::snapshot();

        /// Mirror `delta` onto `g` with the session's idempotent edge
        /// semantics (re-adding a present edge is a no-op, not an error).
        fn apply_delta_to_mirror(g: &mut Graph, delta: &Delta) {
            match delta {
                Delta::SetWeight { v, w } => g.try_set_weight(*v, w.clone()).unwrap(),
                Delta::AddEdge { u, v } => {
                    if !g.has_edge(*u, *v) {
                        g.add_edge(*u, *v).unwrap();
                    }
                }
                Delta::RemoveEdge { u, v } => {
                    if g.has_edge(*u, *v) {
                        g.remove_edge(*u, *v).unwrap();
                    }
                }
                Delta::Batch(items) => {
                    for d in items {
                        apply_delta_to_mirror(g, d);
                    }
                }
            }
        }

        let mut tch = Table::new(&[
            "workload",
            "events",
            "cold ms/ev",
            "incr ms/ev",
            "speedup",
            "unchanged",
            "recert",
            "recomp",
        ]);

        // Zipf(1.1) vertex popularity: a few hot agents re-report often.
        let zipf_vertex = |rng: &mut StdRng, n: usize| -> usize {
            let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(1.1)).collect();
            let total: f64 = weights.iter().sum();
            let mut u = rng.gen_range(0.0..1.0) * total;
            for (i, z) in weights.iter().enumerate() {
                if u < *z {
                    return i;
                }
                u -= *z;
            }
            n - 1
        };

        let weight_script = |seed: u64, n: usize, events: usize| -> Vec<Delta> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..events)
                .map(|_| Delta::SetWeight {
                    v: zipf_vertex(&mut rng, n),
                    w: int(rng.gen_range(1..=50)),
                })
                .collect()
        };
        let join_leave_script = |seed: u64, n: usize, events: usize| -> Vec<Delta> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut chord_in = false;
            (0..events)
                .map(|i| match i % 3 {
                    0 => {
                        chord_in = !chord_in;
                        if chord_in {
                            Delta::AddEdge { u: 0, v: n / 2 }
                        } else {
                            Delta::RemoveEdge { u: 0, v: n / 2 }
                        }
                    }
                    // Peers re-announcing existing links: pure `Unchanged`.
                    1 => Delta::AddEdge { u: 0, v: 1 },
                    _ => Delta::SetWeight {
                        v: zipf_vertex(&mut rng, n),
                        w: int(rng.gen_range(1..=50)),
                    },
                })
                .collect()
        };
        let noop_script = |n: usize, events: usize| -> Vec<Delta> {
            (0..events)
                .map(|i| match i % 2 {
                    0 => Delta::AddEdge { u: 0, v: 1 }, // already a ring edge
                    _ => Delta::Batch(vec![
                        Delta::AddEdge { u: 1, v: n / 2 + 1 },
                        Delta::RemoveEdge { u: 1, v: n / 2 + 1 },
                    ]),
                })
                .collect()
        };

        // Replay once for verification: per-event bit-identity vs cold,
        // serving-tier tallies, and (via the returned graphs) the cold
        // baseline's workload.
        let verify_and_tally = |g0: &Graph, script: &[Delta]| -> (Vec<Graph>, u64, u64, u64) {
            let mut session = DecompositionSession::new(g0.clone());
            let mut mirror = g0.clone();
            let (mut unchanged, mut recert, mut recomp) = (0u64, 0u64, 0u64);
            let mut graphs = Vec::with_capacity(script.len());
            for d in script {
                match session.apply(d.clone()).expect("valid churn event") {
                    UpdateOutcome::Unchanged => unchanged += 1,
                    UpdateOutcome::Recertified { .. } => recert += 1,
                    UpdateOutcome::Recomputed => recomp += 1,
                }
                apply_delta_to_mirror(&mut mirror, d);
                let cold = decompose_two_tier(&mirror).expect("churned graph decomposes");
                assert_eq!(
                    session.current().expect("session state"),
                    &cold,
                    "incremental ≠ cold during churn verification"
                );
                graphs.push(mirror.clone());
            }
            (graphs, unchanged, recert, recomp)
        };

        let churn_ns: &[usize] = if quick { &[12] } else { &[16, 32] };
        let events = if quick { 30 } else { 60 };
        let mut named_scripts: Vec<(String, Graph, Vec<Delta>)> = Vec::new();
        for &n in churn_ns {
            let ring = ring_family(9300 + n as u64, 1, n, 1, 50).pop().unwrap();
            named_scripts.push((
                format!("zipf-weights/n={n}"),
                ring.clone(),
                weight_script(9300 + n as u64, n, events),
            ));
            named_scripts.push((
                format!("join-leave/n={n}"),
                ring,
                join_leave_script(9400 + n as u64, n, events),
            ));
        }

        for (name, g0, script) in &named_scripts {
            let (graphs, unchanged, recert, recomp) = verify_and_tally(g0, script);
            let cold_ms = median_ms(reps, || {
                for g in &graphs {
                    std::hint::black_box(decompose_two_tier(g).unwrap());
                }
            }) / events as f64;
            let incr_ms = median_ms(reps, || {
                let mut s = DecompositionSession::new(g0.clone());
                s.current().unwrap();
                for d in script {
                    std::hint::black_box(s.apply(d.clone()).unwrap());
                }
            }) / events as f64;
            let speedup = cold_ms / incr_ms;
            tch.row(vec![
                name.clone(),
                events.to_string(),
                format!("{cold_ms:.4}"),
                format!("{incr_ms:.4}"),
                format!("{speedup:.2}×"),
                unchanged.to_string(),
                recert.to_string(),
                recomp.to_string(),
            ]);
            churn_rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"events\": {}, ",
                    "\"cold_ms_per_event\": {:.5}, \"incremental_ms_per_event\": {:.5}, ",
                    "\"speedup\": {:.3}, \"unchanged\": {}, \"recertified\": {}, ",
                    "\"recomputed\": {}}}"
                ),
                name, events, cold_ms, incr_ms, speedup, unchanged, recert, recomp,
            ));
        }

        // The no-op probe: every event must be answered `Unchanged` with
        // zero flow-engine invocations — the O(1) tier of the acceptance
        // criteria, asserted on the real counters.
        {
            let n = churn_ns[0];
            let ring = ring_family(9300 + n as u64, 1, n, 1, 50).pop().unwrap();
            let script = noop_script(n, events);
            let mut session = DecompositionSession::new(ring.clone());
            session.current().unwrap();
            let before = stats::snapshot();
            let t0 = std::time::Instant::now();
            for d in &script {
                assert_eq!(
                    session.apply(d.clone()).unwrap(),
                    UpdateOutcome::Unchanged,
                    "no-op probe must stay on the Unchanged tier"
                );
            }
            let noop_ms = t0.elapsed().as_secs_f64() * 1e3 / events as f64;
            let delta = stats::snapshot().since(&before);
            let flows = delta.exact_max_flows + delta.i128_max_flows + delta.int_max_flows;
            assert_eq!(flows, 0, "Unchanged tier invoked the flow engine");
            assert_eq!(delta.delta_unchanged, events as u64);
            tch.row(vec![
                format!("noop-probe/n={n}"),
                events.to_string(),
                "-".to_string(),
                format!("{noop_ms:.4}"),
                "-".to_string(),
                events.to_string(),
                "0".to_string(),
                "0".to_string(),
            ]);
            churn_rows.push(format!(
                concat!(
                    "    {{\"workload\": \"noop-probe/n={}\", \"events\": {}, ",
                    "\"incremental_ms_per_event\": {:.5}, \"flow_invocations\": {}, ",
                    "\"unchanged\": {}, \"recertified\": 0, \"recomputed\": 0}}"
                ),
                n, events, noop_ms, flows, events,
            ));
        }

        // Join/leave over session pools: the same weight scripts fan out
        // over a ShardPool's per-shard delta queues and drain in parallel.
        {
            let n = churn_ns[0];
            let shards = 4usize;
            let instances: Vec<Graph> = (0..shards)
                .map(|s| ring_family(9500 + s as u64, 1, n, 1, 50).pop().unwrap())
                .collect();
            let scripts: Vec<Vec<Delta>> = (0..shards)
                .map(|s| weight_script(9500 + s as u64, n, events))
                .collect();
            let total_events = shards * events;
            // Cold baseline: every shard's every post-event graph, from
            // scratch (sequential — the per-event unit cost).
            let mut all_graphs: Vec<Graph> = Vec::with_capacity(total_events);
            for (g0, script) in instances.iter().zip(&scripts) {
                let mut mirror = g0.clone();
                for d in script {
                    apply_delta_to_mirror(&mut mirror, d);
                    all_graphs.push(mirror.clone());
                }
            }
            let cold_ms = median_ms(reps, || {
                for g in &all_graphs {
                    std::hint::black_box(decompose_two_tier(g).unwrap());
                }
            }) / total_events as f64;
            let incr_ms = median_ms(reps, || {
                let pool = ShardPool::new(instances.clone(), SessionConfig::new());
                for (s, script) in scripts.iter().enumerate() {
                    for d in script {
                        assert!(pool.enqueue(s, d.clone()));
                    }
                }
                for outcomes in pool.drain(shards) {
                    for o in outcomes {
                        std::hint::black_box(o.unwrap());
                    }
                }
            }) / total_events as f64;
            let speedup = cold_ms / incr_ms;
            tch.row(vec![
                format!("shard-pool/n={n}×{shards}"),
                total_events.to_string(),
                format!("{cold_ms:.4}"),
                format!("{incr_ms:.4}"),
                format!("{speedup:.2}×"),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
            churn_rows.push(format!(
                concat!(
                    "    {{\"workload\": \"shard-pool/n={}x{}\", \"events\": {}, ",
                    "\"cold_ms_per_event\": {:.5}, \"incremental_ms_per_event\": {:.5}, ",
                    "\"speedup\": {:.3}}}"
                ),
                n, shards, total_events, cold_ms, incr_ms, speedup,
            ));
        }
        tch.print();
        churn_stats_json = stats::snapshot().since(&churn_window).to_json();
    }

    // --- swarm_scale: the struct-of-arrays protocol engine ---------------
    let swarm_rows = bench_swarm_scale(quick, reps);

    // --- per-span-kind timings: one traced misreport sweep, aggregated ---
    //
    // Everything above ran with tracing disabled (the default), so those
    // numbers stay comparable to untraced baselines. This section flips the
    // recorder on for a single representative workload and reports where
    // the time goes, per (layer, name) span kind.
    let trace_n = sweep_ns[0];
    let trace_ring = ring_family(9100 + trace_n as u64, 1, trace_n, 1, 50)
        .pop()
        .unwrap();
    let trace_fam = MisreportFamily::new(trace_ring, 0);
    let trace_cfg = SweepConfig::new()
        .with_grid(sweep_grid)
        .with_refine_bits(20);
    prs_core::trace::install(&prs_core::trace::TraceConfig::new().with_enabled(true));
    // Arm the streaming histograms over the same window, so the snapshot
    // rows below describe exactly the spans `trace_spans` aggregates
    // post-hoc — the live-vs-post-hoc agreement the metrics layer promises.
    prs_core::trace::metrics::reset();
    prs_core::trace::metrics::install(&prs_core::trace::metrics::MetricsConfig::new());
    let _ = sweep(&trace_fam, &trace_cfg);
    // Replay a short churn burst under the same recorder so the delta
    // tiers show up in the profile: `bd.delta_apply` for direct serves and
    // `bd.shard_drain` for the pooled queue path.
    {
        let g = ring_family(9700 + trace_n as u64, 1, trace_n, 1, 50)
            .pop()
            .unwrap();
        let mut s = DecompositionSession::new(g.clone());
        s.current().unwrap();
        for i in 0..8usize {
            let w = int((i as i64 * 7) % 49 + 1);
            s.apply(Delta::SetWeight { v: i % trace_n, w }).unwrap();
        }
        let pool = ShardPool::new(vec![g], SessionConfig::new());
        assert!(pool.enqueue(0, Delta::AddEdge { u: 0, v: 1 }));
        for outcomes in pool.drain(1) {
            for o in outcomes {
                o.unwrap();
            }
        }
    }
    let metrics_rows = prs_core::trace::metrics::snapshot();
    prs_core::trace::metrics::disable();
    prs_core::trace::disable();
    let traced = prs_core::trace::take();
    let mut tt = Table::new(&["span", "count", "total ms", "p50 µs", "p90 µs", "p99 µs"]);
    let mut span_rows: Vec<String> = Vec::new();
    for s in traced.span_stats() {
        tt.row(vec![
            format!("{}.{}", s.layer, s.name),
            s.count.to_string(),
            format!("{:.3}", s.total_ns as f64 / 1e6),
            format!("{:.1}", s.p50_ns as f64 / 1e3),
            format!("{:.1}", s.p90_ns as f64 / 1e3),
            format!("{:.1}", s.p99_ns as f64 / 1e3),
        ]);
        span_rows.push(format!(
            concat!(
                "    {{\"layer\": \"{}\", \"name\": \"{}\", \"count\": {}, ",
                "\"total_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}"
            ),
            s.layer, s.name, s.count, s.total_ns, s.p50_ns, s.p90_ns, s.p99_ns,
        ));
    }
    println!("  traced workload: misreport-sweep+churn/n={trace_n} (grid {sweep_grid})");
    tt.print();

    // --- live metrics: snapshot rows + agreement with the post-hoc rows ---
    //
    // The streaming histograms watched the same window `trace_spans`
    // aggregates post-hoc; their quantiles must under-report each exact
    // nearest-rank value by less than the documented 1/2^SUB_BITS bound.
    let mut metrics_snapshot_rows: Vec<String> = Vec::new();
    for r in &metrics_rows {
        metrics_snapshot_rows.push(format!(
            concat!(
                "    {{\"layer\": \"{}\", \"name\": \"{}\", \"count\": {}, ",
                "\"sum_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}"
            ),
            r.layer, r.name, r.count, r.sum_ns, r.p50_ns, r.p90_ns, r.p99_ns,
        ));
    }
    for s in traced.span_stats() {
        let Some(r) = metrics_rows
            .iter()
            .find(|r| (r.layer, r.name) == (s.layer, s.name))
        else {
            continue;
        };
        if r.count != s.count {
            continue; // dropped events would shift ranks; nothing to compare
        }
        for (q, est, exact) in [
            (50, r.p50_ns, s.p50_ns),
            (90, r.p90_ns, s.p90_ns),
            (99, r.p99_ns, s.p99_ns),
        ] {
            assert!(
                est <= exact && (exact - est).saturating_mul(64) <= exact,
                "{}.{} p{q}: streaming {est} vs post-hoc {exact} breaks the 1/64 bound",
                s.layer,
                s.name
            );
        }
    }

    // --- metrics_overhead: span open+close cost per configuration ---
    //
    // The "disabled" row is the acceptance criterion: with every subsystem
    // off, `span()` is a single relaxed atomic load and must stay in the
    // nanosecond noise; the enabled rows price the histogram update.
    prs_core::trace::metrics::disable();
    prs_core::trace::disable();
    let overhead_reps: u64 = if quick { 2_000_000 } else { 8_000_000 };
    let ns_per_span = |n: u64| {
        let t0 = Instant::now();
        for _ in 0..n {
            let _s = std::hint::black_box(prs_core::trace::span("bench", "overhead_probe"));
        }
        t0.elapsed().as_nanos() as f64 / n as f64
    };
    let disabled_ns = ns_per_span(overhead_reps);
    prs_core::trace::metrics::install(&prs_core::trace::metrics::MetricsConfig::new());
    let metrics_ns = ns_per_span(overhead_reps / 8);
    prs_core::trace::metrics::disable();
    prs_core::trace::install(&prs_core::trace::TraceConfig::new().with_enabled(true));
    let record_ns = ns_per_span(overhead_reps / 8);
    prs_core::trace::disable();
    prs_core::trace::clear();
    prs_core::trace::metrics::reset();
    let mut to = Table::new(&["config", "ns/span"]);
    let overhead_rows: Vec<String> = [
        ("disabled", disabled_ns),
        ("metrics", metrics_ns),
        ("record", record_ns),
    ]
    .iter()
    .map(|(cfg_name, ns)| {
        to.row(vec![cfg_name.to_string(), format!("{ns:.2}")]);
        format!("    {{\"config\": \"{cfg_name}\", \"ns_per_span\": {ns:.3}}}")
    })
    .collect();
    println!("  metrics overhead (span open+close):");
    to.print();

    // --- histogram accuracy: streaming quantiles vs exact sorted ranks ---
    let mut accuracy_rows: Vec<String> = Vec::new();
    let mut ta = Table::new(&["samples", "p50 err ‰", "p90 err ‰", "p99 err ‰", "bound ‰"]);
    for &samples in &[1_000u64, 100_000] {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut vals: Vec<u64> = Vec::with_capacity(samples as usize);
        let mut h = prs_core::trace::metrics::Histogram::new();
        for i in 0..samples {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // Durations spread over eight decades, like real span traffic.
            let v = (x >> 32) % (1u64 << (6 + (i % 8) * 4));
            vals.push(v);
            h.record(v);
        }
        vals.sort_unstable();
        let err_permille = |q: u64| {
            let rank = (samples * q).div_ceil(100).clamp(1, samples) as usize;
            let exact = vals[rank - 1];
            let est = h.quantile(q);
            assert!(est <= exact, "streaming quantile must lower-bound exact");
            if exact == 0 {
                0.0
            } else {
                (exact - est) as f64 * 1000.0 / exact as f64
            }
        };
        let (e50, e90, e99) = (err_permille(50), err_permille(90), err_permille(99));
        let bound = 1000.0 / 64.0;
        for e in [e50, e90, e99] {
            assert!(e <= bound, "accuracy {e}‰ exceeds the {bound}‰ bound");
        }
        ta.row(vec![
            samples.to_string(),
            format!("{e50:.2}"),
            format!("{e90:.2}"),
            format!("{e99:.2}"),
            format!("{bound:.2}"),
        ]);
        accuracy_rows.push(format!(
            concat!(
                "    {{\"samples\": {}, \"p50_err_permille\": {:.3}, ",
                "\"p90_err_permille\": {:.3}, \"p99_err_permille\": {:.3}, ",
                "\"bound_permille\": {:.3}}}"
            ),
            samples, e50, e90, e99, bound
        ));
    }
    println!(
        "  histogram accuracy (log-linear, SUB_BITS={}):",
        prs_core::trace::metrics::SUB_BITS
    );
    ta.print();
    let metrics_counters = format!(
        "{{\"slo_breaches\": {}, \"anomalies\": {}, \"flight_dumps\": {}}}",
        prs_core::trace::metrics::slo_breach_count(),
        prs_core::trace::metrics::anomaly_count(),
        prs_core::trace::metrics::flight_dump_count(),
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"generated_by\": \"cargo run --release -p prs-bench --bin experiments bench\",\n",
            "  \"quick\": {},\n",
            "  \"reps_per_measurement\": {},\n",
            "  \"engines\": [\n{}\n  ],\n",
            "  \"cert_engines\": [\n{}\n  ],\n",
            "  \"session_workloads\": [\n{}\n  ],\n",
            "  \"churn_workloads\": [\n{}\n  ],\n",
            "  \"churn_stats\": {},\n",
            "  \"swarm_scale\": [\n{}\n  ],\n",
            "  \"trace_spans\": {{\"workload\": \"misreport-sweep+churn/n={}\", \"spans\": [\n{}\n  ]}},\n",
            "  \"metrics_snapshot\": {{\"workload\": \"misreport-sweep+churn/n={}\", \"spans\": [\n{}\n  ]}},\n",
            "  \"metrics_counters\": {},\n",
            "  \"metrics_overhead\": [\n{}\n  ],\n",
            "  \"histogram_accuracy\": [\n{}\n  ],\n",
            "  \"sybil_attack_n{}\": {{\"two_tier_ms\": {:.4}, \"stats\": {}}}\n",
            "}}\n"
        ),
        quick,
        reps,
        rows.join(",\n"),
        cert_engine_rows.join(",\n"),
        session_rows.join(",\n"),
        churn_rows.join(",\n"),
        churn_stats_json,
        swarm_rows.join(",\n"),
        trace_n,
        span_rows.join(",\n"),
        trace_n,
        metrics_snapshot_rows.join(",\n"),
        metrics_counters,
        overhead_rows.join(",\n"),
        accuracy_rows.join(",\n"),
        attack_n,
        attack_ms,
        attack_stats.to_json(),
    );
    let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_seed.json".into());
    std::fs::write(&path, json).expect("write BENCH_seed.json");
    println!("  wrote {path}");
}
