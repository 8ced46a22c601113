//! `swarm`: the struct-of-arrays proportional-response engine on a 2¹⁴-agent
//! ring, as `prs swarm` runs it. Each first-half round `step()`s, every
//! eighth after two membership events; the second half is one `run()` with
//! tolerance 0, so every pass does the same rounds.
//!
//! One pass replays the loop on a fresh swarm. Set-up is
//! `graph::builders::ring` over the seeded weights, `SoaSwarm::new` and the
//! warm-up steps. The operation latency is that of one first-half round
//! (the `step()` and any `apply` calls before it).

use crate::gen::{
    self, SwarmInput, SWARM_AGENTS, SWARM_RUN_ROUNDS, SWARM_STEP_ROUNDS, SWARM_WARMUP,
};
use crate::stats::{median, ms, percentile, ratio, us};
use crate::{alloc_count, cli, layers, schedule, Args, Report};
use prs_core::p2psim::MembershipError;
use prs_core::prelude::*;
use std::ffi::OsStr;
use std::time::Instant;

/// First-half rounds replayed through `prs swarm` for the parity check:
/// ten of them carry events.
const PARITY_ROUNDS: usize = 80;
/// One pass, its set-up and checks included, on the reference machine.
const NOMINAL_PASS_S: f64 = 0.5;

fn kind(e: &MembershipEvent) -> usize {
    match e {
        MembershipEvent::Join { .. } => 0,
        MembershipEvent::Leave { .. } => 1,
        MembershipEvent::Rewire { .. } => 2,
    }
}

struct Setup {
    swarm: SoaSwarm,
    ring_build_ms: f64,
    new_ms: f64,
    seconds: f64,
}

fn setup(input: &SwarmInput, rep: &mut Report) -> Option<Setup> {
    let weights: Vec<Rational> = input
        .weights
        .iter()
        .map(|&w| Rational::from_integer(i64::from(w)))
        .collect();
    let start = Instant::now();
    let g = match builders::ring(weights) {
        Ok(g) => g,
        Err(e) => {
            rep.check(false, || format!("swarm ring: {e}"));
            return None;
        }
    };
    let ring_build_ms = ms(start.elapsed());
    let t = Instant::now();
    let mut swarm = SoaSwarm::new(&g);
    let new_ms = ms(t.elapsed());
    for _ in 0..SWARM_WARMUP {
        swarm.step();
    }
    let seconds = start.elapsed().as_secs_f64();
    Some(Setup {
        swarm,
        ring_build_ms,
        new_ms,
        seconds,
    })
}

#[derive(Default)]
struct Pass {
    outcomes: Vec<Result<MembershipOutcome, MembershipError>>,
    apply_us: [Vec<f64>; 3],
    round_us: Vec<f64>,
    step_s: f64,
    step_agent_rounds: f64,
    step_allocs: u64,
    run_s: f64,
    run_agent_rounds: f64,
    run_rounds: usize,
    seconds: f64,
    /// FNV-1a over the bits of the final utilities.
    checksum: u64,
    live: usize,
    received: f64,
    live_capacity: f64,
}

fn pass(swarm: &mut SoaSwarm, input: &SwarmInput) -> Pass {
    let mut p = Pass::default();
    let start = Instant::now();
    for r in 0..SWARM_STEP_ROUNDS {
        let round = Instant::now();
        for e in input.events_before(r) {
            let t = Instant::now();
            let out = swarm.apply(e);
            p.apply_us[kind(e)].push(us(t.elapsed()));
            p.outcomes.push(out);
        }
        let live = swarm.live_agents();
        let t = Instant::now();
        let ((), allocs) = alloc_count::during(|| swarm.step());
        p.step_s += t.elapsed().as_secs_f64();
        p.step_allocs += allocs;
        p.step_agent_rounds += live as f64;
        p.round_us.push(us(round.elapsed()));
    }
    let live = swarm.live_agents();
    let t = Instant::now();
    let m = swarm.run(&SwarmConfig {
        max_rounds: SWARM_RUN_ROUNDS,
        tol: 0.0,
        record_trace: false,
    });
    p.run_s = t.elapsed().as_secs_f64();
    p.seconds = start.elapsed().as_secs_f64();
    p.run_rounds = m.rounds;
    p.run_agent_rounds = (live * m.rounds) as f64;

    p.checksum = m.utilities.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, u| {
        (h ^ u.to_bits()).wrapping_mul(0x0100_0000_01b3)
    });
    p.live = swarm.live_agents();
    p.received = swarm.utilities().iter().sum();
    p.live_capacity = swarm.capacities().iter().sum();
    p
}

/// The pass's outputs: every event applied, the live count matches the
/// script, received mass equals live capacity, `run()` did every round, and
/// the final utilities match the first pass bit for bit.
fn check_pass(p: &Pass, input: &SwarmInput, first_checksum: u64, rep: &mut Report) {
    for (i, out) in p.outcomes.iter().enumerate() {
        rep.check(out.is_ok(), || format!("membership event {i}: {out:?}"));
    }
    rep.check(p.live == input.expected_live, || {
        format!(
            "{} live agents, the script implies {}",
            p.live, input.expected_live
        )
    });
    rep.check(
        (p.received - p.live_capacity).abs() <= 1e-9 * p.live_capacity,
        || {
            format!(
                "Σ received {} ≠ Σ live capacity {}",
                p.received, p.live_capacity
            )
        },
    );
    rep.check(p.run_rounds == SWARM_RUN_ROUNDS, || {
        format!("run() stopped after {} rounds", p.run_rounds)
    });
    rep.check(p.checksum == first_checksum, || {
        "final utilities differ from the first pass".to_string()
    });
}

pub fn run(args: &Args, rep: &mut Report) {
    let input = gen::swarm_input(args.seed);
    let mut setups = Vec::new();
    let mut ring_build_ms = Vec::new();
    let mut new_ms = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut counts = Vec::new();
    let mut lane_mib = 0.0;
    for _ in schedule(args.seconds, NOMINAL_PASS_S) {
        let Some(mut s) = setup(&input, rep) else {
            return;
        };
        setups.push(s.seconds);
        ring_build_ms.push(s.ring_build_ms);
        new_ms.push(s.new_ms);
        let (p, c) = layers::counted(|| pass(&mut s.swarm, &input));
        let first = passes.first().map_or(p.checksum, |f| f.checksum);
        check_pass(&p, &input, first, rep);
        rep.check(p.step_allocs == 0, || {
            format!("{} heap allocations in step()", p.step_allocs)
        });
        lane_mib = lane_bytes(&s.swarm) / (1024.0 * 1024.0);
        rep.note_peak_rss();
        eprintln!("perfbench: pass {}: {:.4} s", passes.len() + 1, p.seconds);
        passes.push(p);
        counts.push(c);
    }
    let pass_s: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    let rounds: Vec<Vec<f64>> = passes.iter().map(|p| p.round_us.clone()).collect();
    rep.set_timings(&setups, &pass_s, &rounds);

    if args.trace {
        // Every pass runs the same rounds over the same live counts.
        let agent_rounds = passes[0].step_agent_rounds + passes[0].run_agent_rounds;
        rep.set(
            "swarm_ns_per_agent_round",
            1e9 * ratio(rep.metrics["pass_s"], agent_rounds),
        );
        rep.set("graph.ring_build_ms", median(&ring_build_ms));
        rep.set("p2psim.new_ms", median(&new_ms));
        rep.set("p2psim.lane_mib", lane_mib);
        let per_pass = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        rep.set(
            "p2psim.step_ns_per_agent_round",
            per_pass(|p| 1e9 * ratio(p.step_s, p.step_agent_rounds)),
        );
        rep.set(
            "p2psim.run_ns_per_agent_round",
            per_pass(|p| 1e9 * ratio(p.run_s, p.run_agent_rounds)),
        );
        rep.set(
            "p2psim.allocs_per_round",
            per_pass(|p| p.step_allocs as f64) / SWARM_STEP_ROUNDS as f64,
        );
        for (k, metric) in [
            "p2psim.apply.join.p50_us",
            "p2psim.apply.leave.p50_us",
            "p2psim.apply.rewire.p50_us",
        ]
        .into_iter()
        .enumerate()
        {
            let lat: Vec<f64> = passes.iter().flat_map(|p| p.apply_us[k].clone()).collect();
            rep.set(metric, percentile(&lat, 50.0));
        }
        layers::set_counter_metrics(rep, &counts[0]);
        if let Some(mut s) = setup(&input, rep) {
            let ((p, trace, wall), c) =
                layers::counted(|| layers::traced(|| pass(&mut s.swarm, &input)));
            check_pass(&p, &input, passes[0].checksum, rep);
            counts.push(c);
            layers::record_trace(rep, &trace, wall, median(&pass_s));
        }
        // This workload is single-threaded: every count repeats exactly.
        layers::check_repeat(rep, &counts);
    }
}

/// Bytes a round streams through: per arc the send, receive and reverse-arc
/// lanes; per slot the offset, degree, effective capacity and two utility
/// lanes (8 bytes each) plus the fixed-split flag.
fn lane_bytes(swarm: &SoaSwarm) -> f64 {
    let arcs = swarm.topology().arena_len() as f64;
    let slots = swarm.n_slots() as f64;
    arcs * 3.0 * 8.0 + slots * (5.0 * 8.0 + 1.0)
}

fn describe(out: &MembershipOutcome) -> String {
    match out {
        MembershipOutcome::Joined(v) => format!("joined as agent {v}"),
        MembershipOutcome::Left => "left".to_string(),
        MembershipOutcome::Rewired { dropped, added } => {
            format!("rewired: dropped {dropped}, added {added}")
        }
        MembershipOutcome::NoOp => "no-op".to_string(),
    }
}

/// `prs swarm --agents --rounds --churn` on the seed's ring with the first
/// rounds' events must report the same outcome per event as the in-process
/// engine, and the live count those outcomes imply.
pub fn parity(args: &Args, rep: &mut Report) -> Result<(), String> {
    let input = gen::swarm_input(args.seed);
    let mut expected = Vec::new();
    let mut lines = Vec::new();
    let mut swarm = setup(&input, rep).ok_or("swarm set-up failed")?.swarm;
    for r in 0..PARITY_ROUNDS {
        for e in input.events_before(r) {
            expected.push(match swarm.apply(e) {
                Ok(out) => describe(&out),
                Err(e) => format!("rejected ({e})"),
            });
            lines.push(gen::membership_jsonl(e, SWARM_WARMUP + r));
        }
        swarm.step();
    }

    let dir = cli::IoDir::new(&args.io_dir, "swarm")?;
    let ring = dir.write("ring.prs", &gen::ring_text(&input.weights))?;
    let churn = dir.write("churn.jsonl", &(lines.join("\n") + "\n"))?;
    let agents = SWARM_AGENTS.to_string();
    let rounds = (SWARM_WARMUP + PARITY_ROUNDS).to_string();
    let (out, seconds) = cli::run_prs(
        &args.prs,
        &[
            OsStr::new("swarm"),
            ring.as_os_str(),
            OsStr::new("--agents"),
            OsStr::new(&agents),
            OsStr::new("--rounds"),
            OsStr::new(&rounds),
            OsStr::new("--churn"),
            churn.as_os_str(),
        ],
    )?;
    rep.set("cli.swarm_s", seconds);

    let printed: Vec<&str> = out
        .lines()
        .filter(|l| l.starts_with("  event "))
        .filter_map(|l| l.split(" → ").nth(1))
        .collect();
    rep.check(printed == expected, || {
        format!("`prs swarm` printed outcomes {printed:?}, in-process {expected:?}")
    });
    let joins = expected.iter().filter(|o| o.starts_with("joined")).count();
    let leaves = expected.iter().filter(|o| *o == "left").count();
    let live = format!("; {} live agent(s)", SWARM_AGENTS + joins - leaves);
    rep.check(out.lines().any(|l| l.ends_with(&live)), || {
        format!("`prs swarm` did not report `{live}`")
    });
    Ok(())
}
