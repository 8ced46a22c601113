//! `churn`: one long-lived `DecompositionSession` on a seeded n=32 ring
//! serving a 3000-event script through `apply`, as `prs update` does.
//!
//! One operation is one `apply`; a pass replays the whole script on a fresh
//! session. Set-up is parsing the ring, `DecompositionSession::new` and the
//! first `current()`.

use crate::gen::{self, ChurnInput};
use crate::layers;
use crate::stats::{median, ms, percentile, ratio, us};
use crate::{cli, schedule, Args, Report};
use prs_core::prelude::*;
use std::ffi::OsStr;
use std::time::Instant;

const TIERS: [&str; 3] = ["unchanged", "recertified", "recomputed"];
/// One pass, its set-up and checks included, on the reference machine.
const NOMINAL_PASS_S: f64 = 1.25;

fn tier(out: &UpdateOutcome) -> usize {
    match out {
        UpdateOutcome::Unchanged => 0,
        UpdateOutcome::Recertified { .. } => 1,
        UpdateOutcome::Recomputed => 2,
    }
}

struct Setup {
    session: DecompositionSession,
    parse_us: f64,
    session_new_ms: f64,
    seconds: f64,
}

fn setup(input: &ChurnInput, rep: &mut Report) -> Option<Setup> {
    let start = Instant::now();
    let g = match parse_instance(&input.ring_text) {
        Ok(g) => g,
        Err(e) => {
            rep.check(false, || format!("churn ring: {e}"));
            return None;
        }
    };
    let parse_us = us(start.elapsed());
    let t = Instant::now();
    let mut session = DecompositionSession::new(g);
    if let Err(e) = session.current() {
        rep.check(false, || format!("initial decomposition: {e}"));
        return None;
    }
    let session_new_ms = ms(t.elapsed());
    Some(Setup {
        session,
        parse_us,
        session_new_ms,
        seconds: start.elapsed().as_secs_f64(),
    })
}

struct Pass {
    outcomes: Vec<Option<UpdateOutcome>>,
    latencies_us: Vec<f64>,
    /// Σ `apply` durations, s.
    seconds: f64,
    /// The whole pass, checkpoint checks included, s.
    wall_s: f64,
}

/// Replay the script. At each checkpoint, outside the timed `apply` calls,
/// the session must hold the mirrored graph and a decomposition equal to a
/// cold `decompose` of it.
fn pass(
    session: &mut DecompositionSession,
    input: &ChurnInput,
    colds: &[BottleneckDecomposition],
    rep: &mut Report,
) -> Pass {
    let start = Instant::now();
    let mut outcomes = Vec::with_capacity(input.script.len());
    let mut latencies_us = Vec::with_capacity(input.script.len());
    let mut seconds = 0.0;
    let mut checkpoints = input.checkpoints.iter().zip(colds).peekable();
    for (i, delta) in input.script.iter().enumerate() {
        let delta = delta.clone();
        let t = Instant::now();
        let out = session.apply(delta);
        let d = t.elapsed();
        seconds += d.as_secs_f64();
        latencies_us.push(us(d));
        rep.check(out.is_ok(), || format!("event {i}: {out:?}"));
        outcomes.push(out.ok());
        if let Some(((_, g), cold)) = checkpoints.next_if(|((at, _), _)| *at == i + 1) {
            let graph_ok = session.graph() == Some(g);
            let bd_ok = session.current().ok() == Some(cold);
            rep.check(graph_ok && bd_ok, || {
                format!(
                    "after event {}: session differs from a cold decompose",
                    i + 1
                )
            });
        }
    }
    Pass {
        outcomes,
        latencies_us,
        seconds,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

pub fn run(args: &Args, rep: &mut Report) {
    let input = gen::churn_input(args.seed);
    let colds: Vec<BottleneckDecomposition> = match input
        .checkpoints
        .iter()
        .map(|(_, g)| decompose(g))
        .collect()
    {
        Ok(c) => c,
        Err(e) => {
            rep.check(false, || format!("cold decompose of a checkpoint: {e}"));
            return;
        }
    };

    let mut setups = Vec::new();
    let mut parse_us = Vec::new();
    let mut session_new_ms = Vec::new();
    let mut passes = Vec::new();
    let mut counts = Vec::new();
    for _ in schedule(args.seconds, NOMINAL_PASS_S) {
        let Some(mut s) = setup(&input, rep) else {
            return;
        };
        setups.push(s.seconds);
        parse_us.push(s.parse_us);
        session_new_ms.push(s.session_new_ms);
        let (p, c) = layers::counted(|| pass(&mut s.session, &input, &colds, rep));
        rep.note_peak_rss();
        eprintln!("perfbench: pass {}: {:.4} s", passes.len() + 1, p.seconds);
        passes.push(p);
        counts.push(c);
    }
    let pass_s: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    let ops: Vec<Vec<f64>> = passes.iter().map(|p| p.latencies_us.clone()).collect();
    rep.set_timings(&setups, &pass_s, &ops);

    if args.trace {
        let events = input.script.len() as f64;
        rep.set("churn_events_per_s", ratio(events, rep.metrics["pass_s"]));
        rep.set("churn_p50_us", rep.metrics["op_p50_us"]);
        let all: Vec<f64> = ops.concat();
        rep.set("churn_p99_us", percentile(&all, 99.0));
        rep.set("core.parse_us", median(&parse_us));
        rep.set("bd.session_new_ms", median(&session_new_ms));
        layers::set_counter_metrics(rep, &counts[0]);
        record_tiers(rep, &passes);
        if let Some(mut s) = setup(&input, rep) {
            let ((_, trace, wall), c) =
                layers::counted(|| layers::traced(|| pass(&mut s.session, &input, &colds, rep)));
            counts.push(c);
            let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
            layers::record_trace(rep, &trace, wall, median(&walls));
        }
        // This workload is single-threaded: every count repeats exactly.
        layers::check_repeat(rep, &counts);
    }
}

/// Per-tier latency percentiles over every pass, and tier shares.
fn record_tiers(rep: &mut Report, passes: &[Pass]) {
    let mut by_tier: [Vec<f64>; 3] = Default::default();
    for p in passes {
        for (out, lat) in p.outcomes.iter().zip(&p.latencies_us) {
            if let Some(out) = out {
                by_tier[tier(out)].push(*lat);
            }
        }
    }
    let total: usize = by_tier.iter().map(Vec::len).sum();
    const P50: [&str; 3] = [
        "bd.apply.unchanged.p50_us",
        "bd.apply.recertified.p50_us",
        "bd.apply.recomputed.p50_us",
    ];
    const P99: [&str; 3] = [
        "bd.apply.unchanged.p99_us",
        "bd.apply.recertified.p99_us",
        "bd.apply.recomputed.p99_us",
    ];
    const SHARE: [&str; 3] = [
        "bd.apply.unchanged.share",
        "bd.apply.recertified.share",
        "bd.apply.recomputed.share",
    ];
    for (t, lat) in by_tier.iter().enumerate() {
        rep.set(P50[t], percentile(lat, 50.0));
        rep.set(P99[t], percentile(lat, 99.0));
        rep.set(SHARE[t], ratio(lat.len() as f64, total as f64));
    }
}

fn describe(out: &UpdateOutcome) -> String {
    match out {
        UpdateOutcome::Recertified { rounds } => {
            format!("recertified ({rounds} round(s) re-ran a flow)")
        }
        other => TIERS[tier(other)].to_string(),
    }
}

/// `prs update` on the seed's ring and script must report the same tier per
/// event as an in-process replay and print the same final decomposition.
pub fn parity(args: &Args, rep: &mut Report) -> Result<(), String> {
    let input = gen::churn_input(args.seed);
    let g = parse_instance(&input.ring_text).map_err(|e| e.to_string())?;
    let mut session = DecompositionSession::new(g);
    session.current().map_err(|e| e.to_string())?;
    let expected: Vec<String> = input
        .script
        .iter()
        .map(|d| match session.apply(d.clone()) {
            Ok(out) => describe(&out),
            Err(e) => format!("rejected ({e})"),
        })
        .collect();
    let bd = session.current().map_err(|e| e.to_string())?.clone();
    let g = session.graph().ok_or("the session owns no graph")?;

    let dir = cli::IoDir::new(&args.io_dir, "churn")?;
    let ring = dir.write("ring.prs", &input.ring_text)?;
    let lines: Vec<String> = input.script.iter().map(gen::delta_jsonl).collect();
    let script = dir.write("script.jsonl", &(lines.join("\n") + "\n"))?;
    let (out, seconds) = cli::run_prs(
        &args.prs,
        &[OsStr::new("update"), ring.as_os_str(), script.as_os_str()],
    )?;
    rep.set("cli.update_s", seconds);

    let printed: Vec<&str> = out
        .lines()
        .filter(|l| l.starts_with("  event "))
        .filter_map(|l| l.split(" → ").nth(1))
        .collect();
    rep.check(printed == expected, || {
        let at = printed.iter().zip(&expected).position(|(a, b)| a != b);
        format!(
            "`prs update` printed {} tiers, in-process {}; first difference at event {at:?}",
            printed.len(),
            expected.len()
        )
    });

    let mut want = vec![format!("final decomposition ({} pairs):", bd.k())];
    for (i, p) in bd.pairs().iter().enumerate() {
        want.push(format!(
            "  (B_{i}, C_{i}) = ({:?}, {:?})   α_{i} = {}",
            p.b.to_vec(),
            p.c.to_vec(),
            p.alpha
        ));
    }
    for v in 0..g.n() {
        want.push(format!(
            "  agent {v}: w = {}, class {:?}, α_v = {}, U_v = {}",
            g.weight(v),
            bd.class_of(v),
            bd.alpha_of(v),
            bd.utility(g, v)
        ));
    }
    let got: Vec<&str> = out
        .lines()
        .skip_while(|l| !l.starts_with("final decomposition"))
        .collect();
    rep.check(got == want, || {
        "`prs update` printed a different final decomposition".to_string()
    });
    Ok(())
}
