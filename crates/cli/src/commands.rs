//! CLI subcommand implementations (pure functions printing to a writer, so
//! they are unit-testable without spawning processes).

use prs_core::prelude::*;
use std::io::Write;

/// `prs decompose`: print the bottleneck decomposition and classes.
pub fn cmd_decompose(g: &Graph, out: &mut dyn Write) -> std::io::Result<()> {
    let bd = match decompose(g) {
        Ok(bd) => bd,
        Err(e) => {
            writeln!(out, "error: {e}")?;
            return Ok(());
        }
    };
    writeln!(out, "bottleneck decomposition ({} pairs):", bd.k())?;
    for (i, p) in bd.pairs().iter().enumerate() {
        writeln!(
            out,
            "  (B_{i}, C_{i}) = ({:?}, {:?})   α_{i} = {}",
            p.b.to_vec(),
            p.c.to_vec(),
            p.alpha
        )?;
    }
    for v in 0..g.n() {
        writeln!(
            out,
            "  agent {v}: w = {}, class {:?}, α_v = {}, U_v = {}",
            g.weight(v),
            bd.class_of(v),
            bd.alpha_of(v),
            bd.utility(g, v)
        )?;
    }
    Ok(())
}

/// `prs allocate`: print the BD allocation edge by edge.
pub fn cmd_allocate(g: &Graph, out: &mut dyn Write) -> std::io::Result<()> {
    let bd = match decompose(g) {
        Ok(bd) => bd,
        Err(e) => {
            writeln!(out, "error: {e}")?;
            return Ok(());
        }
    };
    let alloc = allocate(g, &bd);
    writeln!(out, "BD allocation:")?;
    for &(u, v) in g.edges() {
        let f = alloc.sent(u, v);
        let b = alloc.sent(v, u);
        writeln!(out, "  {u} → {v}: {f}    {v} → {u}: {b}")?;
    }
    for v in 0..g.n() {
        writeln!(out, "  U_{v} = {}", alloc.utility(v))?;
    }
    Ok(())
}

/// `prs dynamics`: run the protocol and report convergence.
pub fn cmd_dynamics(g: &Graph, eps: f64, out: &mut dyn Write) -> std::io::Result<()> {
    let bd = match decompose(g) {
        Ok(bd) => bd,
        Err(e) => {
            writeln!(out, "error: {e}")?;
            return Ok(());
        }
    };
    let target: Vec<f64> = bd.utilities(g).iter().map(|u| u.to_f64()).collect();
    let mut swarm = match SoaSwarm::try_new(g) {
        Ok(swarm) => swarm,
        Err(e) => {
            writeln!(out, "error: {e}")?;
            return Ok(());
        }
    };
    let rep = run_until_close(&mut swarm, &target, eps, 2_000_000);
    writeln!(
        out,
        "proportional response: converged = {} after {} rounds (residual {:.3e})",
        rep.converged, rep.rounds, rep.final_error
    )?;
    for (v, u) in swarm.utilities().iter().enumerate() {
        writeln!(out, "  U_{v}(t) = {u:.6}   (equilibrium {:.6})", target[v])?;
    }
    Ok(())
}

/// `prs attack`: optimize a Sybil attack for one ring agent.
pub fn cmd_attack(g: &Graph, v: usize, out: &mut dyn Write) -> std::io::Result<()> {
    if !g.is_ring() {
        writeln!(
            out,
            "error: `attack` requires a ring instance (use `general-attack`)"
        )?;
        return Ok(());
    }
    if v >= g.n() {
        writeln!(out, "error: vertex {v} out of range")?;
        return Ok(());
    }
    if let Some(z) = g.weights().iter().position(|w| !w.is_positive()) {
        writeln!(
            out,
            "error: agent {z} has non-positive weight; the attack model requires w > 0"
        )?;
        return Ok(());
    }
    let outcome = best_sybil_split(g, v, &AttackConfig::default());
    let w2 = g.weight(v) - &outcome.best.w1;
    writeln!(out, "agent {v} (w = {}):", g.weight(v))?;
    writeln!(out, "  honest utility U_v = {}", outcome.honest_utility)?;
    writeln!(out, "  best split        = ({}, {})", outcome.best.w1, w2)?;
    writeln!(out, "  attack payoff     = {}", outcome.best.total())?;
    writeln!(
        out,
        "  incentive ratio ζ = {} (≈{:.6}; Theorem 8 bound: 2)",
        outcome.ratio,
        outcome.ratio_f64()
    )?;
    Ok(())
}

/// `prs general-attack`: the Definition 7 attack on an arbitrary graph.
pub fn cmd_general_attack(g: &Graph, v: usize, out: &mut dyn Write) -> std::io::Result<()> {
    use prs_core::sybil::{best_general_sybil, GeneralAttackConfig};
    if v >= g.n() {
        writeln!(out, "error: vertex {v} out of range")?;
        return Ok(());
    }
    if g.degree(v) < 2 {
        writeln!(
            out,
            "error: agent {v} has degree < 2; no Sybil split exists"
        )?;
        return Ok(());
    }
    let outcome = best_general_sybil(g, v, &GeneralAttackConfig::default());
    writeln!(out, "agent {v} (degree {}):", g.degree(v))?;
    writeln!(out, "  honest utility U_v  = {}", outcome.honest_utility)?;
    writeln!(out, "  best payoff found   = {}", outcome.best_payoff)?;
    writeln!(out, "  neighbor partition  = {:?}", outcome.best_partition)?;
    writeln!(
        out,
        "  identity weights    = {:?}",
        outcome
            .best_weights
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
    )?;
    writeln!(
        out,
        "  ζ_v lower bound     = {} (≈{:.6}; conjectured bound: 2)",
        outcome.ratio,
        outcome.ratio.to_f64()
    )?;
    Ok(())
}

/// `prs audit`: the full paper-claim battery on a ring instance. With
/// `stats = true`, also prints the flow-engine instrumentation counters
/// accumulated while the battery ran (max-flows, Dinkelbach iterations,
/// session hit rate, arena reuse — see `prs_flow::stats`).
pub fn cmd_audit(g: &Graph, stats: bool, out: &mut dyn Write) -> std::io::Result<()> {
    if !g.is_ring() {
        writeln!(out, "error: `audit` requires a ring instance")?;
        return Ok(());
    }
    let ring = match prs_core::RingInstance::new(g.weights().to_vec()) {
        Ok(r) => r,
        Err(e) => {
            writeln!(out, "error: {e}")?;
            return Ok(());
        }
    };
    let before = prs_core::flow::stats::snapshot();
    let audit = audit_paper_claims(
        &ring,
        &AttackConfig::new()
            .with_grid(16)
            .with_zoom_levels(3)
            .with_keep(2),
        12,
    );
    writeln!(out, "paper-claim audit:")?;
    writeln!(
        out,
        "  Proposition 3 (invariants)      : {}",
        mark(audit.prop3)
    )?;
    writeln!(
        out,
        "  Proposition 6 (allocation)      : {}",
        mark(audit.prop6)
    )?;
    writeln!(
        out,
        "  Lemma 9 (honest split neutral)  : {}",
        mark(audit.lemma9)
    )?;
    writeln!(
        out,
        "  Theorem 10 (misreport monotone) : {}",
        mark(audit.theorem10)
    )?;
    writeln!(
        out,
        "  Proposition 11 (α monotone)     : {}",
        mark(audit.prop11)
    )?;
    writeln!(
        out,
        "  Lemmas 14/20 (path cases)       : {}",
        mark(audit.cases)
    )?;
    writeln!(
        out,
        "  Stage lemmas 16/18/22/24        : {}",
        mark(audit.stages)
    )?;
    writeln!(
        out,
        "  Theorem 8 (ζ ≤ 2)               : {}",
        mark(audit.theorem8)
    )?;
    writeln!(
        out,
        "  max ζ_v observed                : {} (≈{:.6})",
        audit.max_ratio,
        audit.max_ratio.to_f64()
    )?;
    if stats {
        let delta = prs_core::flow::stats::snapshot().since(&before);
        writeln!(out, "flow-engine stats:")?;
        for line in delta.render().lines() {
            writeln!(out, "  {line}")?;
        }
        // Machine-readable mirror of the same delta (rate keys omitted when
        // no rounds ran — NaN has no JSON representation).
        writeln!(out, "  json {}", delta.to_json())?;
    }
    Ok(())
}

/// `prs sweep`: exact misreport sweep of one agent's reported weight —
/// the Proposition 11 experiment as a command. Prints the constant-shape
/// intervals and breakpoints of `x ↦ 𝓑(G_{v→x})`: `=` for a solved one,
/// `≈` for the midpoint of a fallback bracket.
pub fn cmd_sweep(g: &Graph, v: usize, out: &mut dyn Write) -> std::io::Result<()> {
    if v >= g.n() {
        writeln!(out, "error: vertex {v} out of range")?;
        return Ok(());
    }
    let fam = MisreportFamily::new(g.clone(), v);
    let result = sweep(&fam, &SweepConfig::default());
    writeln!(
        out,
        "misreport sweep for agent {v} (true weight {}):",
        fam.true_weight()
    )?;
    writeln!(
        out,
        "  {} exact samples, {} constant-shape intervals",
        result.samples.len(),
        result.intervals.len()
    )?;
    for (i, iv) in result.intervals.iter().enumerate() {
        writeln!(
            out,
            "  interval {i}: x ∈ [{}, {}]  class {:?}  ({} pairs)",
            iv.lo,
            iv.hi,
            iv.focus_class,
            iv.shape.len()
        )?;
    }
    for (solved, bp) in result.solved().iter().zip(result.breakpoints()) {
        let exact = if solved.is_some() { "=" } else { "≈" };
        writeln!(out, "  breakpoint {exact} {bp}")?;
    }
    Ok(())
}

/// `prs certified-attack`: symbolic per-interval attack optimization.
pub fn cmd_certified_attack(g: &Graph, v: usize, out: &mut dyn Write) -> std::io::Result<()> {
    if !g.is_ring() {
        writeln!(out, "error: `certified-attack` requires a ring instance")?;
        return Ok(());
    }
    if v >= g.n() {
        writeln!(out, "error: vertex {v} out of range")?;
        return Ok(());
    }
    if let Some(z) = g.weights().iter().position(|w| !w.is_positive()) {
        writeln!(
            out,
            "error: agent {z} has non-positive weight; the attack model requires w > 0"
        )?;
        return Ok(());
    }
    let cert = prs_core::sybil::certified_best_split(g, v, 32, 35);
    writeln!(out, "agent {v} (w = {}):", g.weight(v))?;
    writeln!(out, "  honest utility U_v  = {}", cert.honest_utility)?;
    writeln!(out, "  certified best w1   = {}", cert.best_w1)?;
    writeln!(out, "  certified payoff    = {}", cert.best_payoff)?;
    writeln!(
        out,
        "  incentive ratio ζ   = {} (≈{:.6}; analyzed {} shape intervals)",
        cert.ratio,
        cert.ratio.to_f64(),
        cert.intervals
    )?;
    Ok(())
}

/// `prs eg`: solve the Eisenberg–Gale program and compare to Prop. 6.
pub fn cmd_eg(g: &Graph, out: &mut dyn Write) -> std::io::Result<()> {
    use prs_core::eg::{solve, EgConfig};
    let bd = match decompose(g) {
        Ok(bd) => bd,
        Err(e) => {
            writeln!(out, "error: {e}")?;
            return Ok(());
        }
    };
    let sol = solve(g, &EgConfig::default());
    writeln!(
        out,
        "Eisenberg–Gale mirror descent: {} iterations (converged = {})",
        sol.iters, sol.converged
    )?;
    writeln!(out, "  v | EG utility | BD utility (Prop. 6)")?;
    for v in 0..g.n() {
        writeln!(
            out,
            "  {v} | {:>10.6} | {:>10.6}",
            sol.utilities[v],
            bd.utility(g, v).to_f64()
        )?;
    }
    Ok(())
}

/// `prs update`: replay a JSONL churn script against one long-lived
/// incremental [`DecompositionSession`] that owns the instance. Each
/// non-empty, non-`#` line is one event — a JSON object with an `"op"` of
/// `set_weight` (`v`, `w`), `add_edge` / `remove_edge` (`u`, `v`), or
/// `batch` (`deltas`: an array of such objects, applied atomically). The
/// per-event line reports which serving tier answered it (unchanged /
/// recertified / recomputed) or that the event was rejected and rolled
/// back. With `stats = true`, the flow-engine counter delta accumulated by
/// the replay (including the `bd.delta_*` tier counters) is printed after
/// the final decomposition.
pub fn cmd_update(
    g: &Graph,
    script: &str,
    stats: bool,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let mut session = DecompositionSession::new(g.clone());
    match session.current() {
        Ok(bd) => writeln!(
            out,
            "initial decomposition: {} pairs over {} agents",
            bd.k(),
            g.n()
        )?,
        Err(e) => {
            writeln!(out, "error: {e}")?;
            return Ok(());
        }
    }
    let before = prs_core::flow::stats::snapshot();
    let (mut unchanged, mut recertified, mut recomputed, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    for (idx, raw) in script.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = idx + 1;
        let delta = match parse_delta(line) {
            Ok(d) => d,
            Err(msg) => {
                writeln!(out, "error: script line {lineno}: {msg}")?;
                return Ok(());
            }
        };
        let ops = delta.len();
        match session.apply(delta) {
            Ok(UpdateOutcome::Unchanged) => {
                unchanged += 1;
                writeln!(out, "  event {lineno}: {ops} op(s) → unchanged")?;
            }
            Ok(UpdateOutcome::Recertified { rounds }) => {
                recertified += 1;
                writeln!(
                    out,
                    "  event {lineno}: {ops} op(s) → recertified ({rounds} round(s) re-ran a flow)"
                )?;
            }
            Ok(UpdateOutcome::Recomputed) => {
                recomputed += 1;
                writeln!(out, "  event {lineno}: {ops} op(s) → recomputed")?;
            }
            Err(e) => {
                rejected += 1;
                writeln!(out, "  event {lineno}: rejected ({e})")?;
            }
        }
    }
    writeln!(
        out,
        "replayed {} event(s): {unchanged} unchanged, {recertified} recertified, \
         {recomputed} recomputed, {rejected} rejected",
        unchanged + recertified + recomputed + rejected
    )?;
    let final_bd = match session.current() {
        Ok(bd) => bd.clone(),
        Err(e) => {
            writeln!(out, "error: {e}")?;
            return Ok(());
        }
    };
    let final_g = session.graph().cloned().unwrap_or_else(|| g.clone());
    writeln!(out, "final decomposition ({} pairs):", final_bd.k())?;
    for (i, p) in final_bd.pairs().iter().enumerate() {
        writeln!(
            out,
            "  (B_{i}, C_{i}) = ({:?}, {:?})   α_{i} = {}",
            p.b.to_vec(),
            p.c.to_vec(),
            p.alpha
        )?;
    }
    for v in 0..final_g.n() {
        writeln!(
            out,
            "  agent {v}: w = {}, class {:?}, α_v = {}, U_v = {}",
            final_g.weight(v),
            final_bd.class_of(v),
            final_bd.alpha_of(v),
            final_bd.utility(&final_g, v)
        )?;
    }
    if stats {
        let delta = prs_core::flow::stats::snapshot().since(&before);
        writeln!(out, "flow-engine stats:")?;
        for line in delta.render().lines() {
            writeln!(out, "  {line}")?;
        }
        writeln!(out, "  json {}", delta.to_json())?;
    }
    Ok(())
}

/// How many processed events between live snapshot prints in
/// [`cmd_watch`].
const WATCH_SNAPSHOT_EVERY: u64 = 8;

/// `prs watch`: replay a churn script (the [`cmd_update`] format) with
/// the live metrics layer armed — streaming histograms feeding
/// mid-replay JSONL snapshot lines (printed every
/// [`WATCH_SNAPSHOT_EVERY`] events and at the end, each line a JSON
/// object starting with `{"layer":`), the SLO watchdog (when `slo_ms`
/// sets a latency ceiling on the session's delta spans), and the flight
/// recorder (dumping anomaly excerpts under `dump_dir` when given).
/// This is the `take()`-free service-operation mode: no trace buffer
/// grows, yet p50/p90/p99 per span stay visible throughout.
pub fn cmd_watch(
    g: &Graph,
    script: &str,
    dump_dir: Option<&str>,
    slo_ms: Option<u64>,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    use prs_core::trace::metrics;
    let mut flight = metrics::FlightConfig::new();
    if let Some(dir) = dump_dir {
        flight = flight.with_dump_dir(dir);
    }
    let mut slo = metrics::SloConfig::new();
    if let Some(ms) = slo_ms {
        let ns = ms.saturating_mul(1_000_000);
        slo = slo
            .with_latency("bd.delta_apply", ns)
            .with_latency("bd.session_round", ns);
    }
    let breaches0 = metrics::slo_breach_count();
    let anomalies0 = metrics::anomaly_count();
    let dumps0 = metrics::flight_dump_count();
    metrics::reset();
    metrics::install(
        &metrics::MetricsConfig::new()
            .with_slo(slo)
            .with_flight(flight),
    );

    let mut session = DecompositionSession::new(g.clone());
    match session.current() {
        Ok(bd) => writeln!(
            out,
            "initial decomposition: {} pairs over {} agents",
            bd.k(),
            g.n()
        )?,
        Err(e) => {
            metrics::disable();
            writeln!(out, "error: {e}")?;
            return Ok(());
        }
    }
    let mut processed = 0u64;
    for (idx, raw) in script.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = idx + 1;
        let delta = match parse_delta(line) {
            Ok(d) => d,
            Err(msg) => {
                metrics::disable();
                writeln!(out, "error: script line {lineno}: {msg}")?;
                return Ok(());
            }
        };
        let ops = delta.len();
        let tier = match session.apply(delta) {
            Ok(UpdateOutcome::Unchanged) => "unchanged".to_string(),
            Ok(UpdateOutcome::Recertified { rounds }) => {
                format!("recertified ({rounds} round(s))")
            }
            Ok(UpdateOutcome::Recomputed) => "recomputed".to_string(),
            Err(e) => format!("rejected ({e})"),
        };
        writeln!(out, "  event {lineno}: {ops} op(s) → {tier}")?;
        processed += 1;
        if processed.is_multiple_of(WATCH_SNAPSHOT_EVERY) {
            write!(out, "{}", metrics::snapshot_jsonl())?;
        }
    }
    // Final snapshot: the live state of every histogram, unconditionally.
    write!(out, "{}", metrics::snapshot_jsonl())?;
    writeln!(
        out,
        "watch: {processed} event(s), {} SLO breach(es), {} anomaly(ies), {} flight dump(s)",
        metrics::slo_breach_count().saturating_sub(breaches0),
        metrics::anomaly_count().saturating_sub(anomalies0),
        metrics::flight_dump_count().saturating_sub(dumps0),
    )?;
    metrics::disable();
    Ok(())
}

/// Exact-BD cross-checks on the post-churn swarm are only attempted when
/// the live population fits a closed-form decomposition run.
const SWARM_BD_CHECK_MAX: usize = 512;

/// The empirical Sybil probe runs `n × 7` full swarm simulations, so it is
/// reserved for small rings.
const SWARM_SYBIL_PROBE_MAX: usize = 12;

/// `prs swarm`: run the struct-of-arrays engine to convergence, optionally
/// replicating the ring to `--agents N` and replaying a JSONL membership
/// script (`{"op": join|leave|rewire, ...}` with an optional `round` field
/// naming the protocol round the event fires at). Reports the convergence
/// round, the max utility deviation from the exact BD allocation on the
/// surviving topology, and the empirical incentive ratio (a grid-probed
/// Sybil best response on small rings, plus the in-vivo fairness spread).
pub fn cmd_swarm(
    g: &Graph,
    agents: Option<usize>,
    rounds: Option<usize>,
    churn: Option<&str>,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    // `--agents N`: tile the instance's weight pattern around an N-ring.
    let expanded;
    let g = match agents {
        Some(n) if n != g.n() => {
            if !g.is_ring() {
                writeln!(out, "error: --agents replication requires a ring instance")?;
                return Ok(());
            }
            if n < 3 {
                writeln!(out, "error: --agents must be at least 3")?;
                return Ok(());
            }
            let tiled: Vec<Rational> = (0..n).map(|v| g.weight(v % g.n()).clone()).collect();
            expanded = match builders::ring(tiled) {
                Ok(big) => big,
                Err(e) => {
                    writeln!(out, "error: {e}")?;
                    return Ok(());
                }
            };
            &expanded
        }
        _ => g,
    };

    // Parse the whole script up front so a typo on line 7 fails before any
    // rounds run, matching `cmd_update`'s replay discipline.
    let mut events: Vec<(usize, usize, MembershipEvent)> = Vec::new();
    if let Some(script) = churn {
        for (idx, raw) in script.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let lineno = idx + 1;
            match parse_membership_event(line) {
                Ok((round, ev)) => events.push((lineno, round, ev)),
                Err(msg) => {
                    writeln!(out, "error: script line {lineno}: {msg}")?;
                    return Ok(());
                }
            }
        }
    }

    let max_rounds = rounds.unwrap_or(100_000);
    let mut swarm = match SoaSwarm::try_new(g) {
        Ok(swarm) => swarm,
        Err(e) => {
            writeln!(out, "error: {e}")?;
            return Ok(());
        }
    };
    writeln!(
        out,
        "struct-of-arrays swarm: {} agent(s), {} edge(s)",
        g.n(),
        g.edges().len()
    )?;

    // Replay churn in file order, stepping the protocol up to each event's
    // round first (events never rewind; an earlier round fires immediately).
    for (lineno, round, ev) in &events {
        while swarm.round() < (*round).min(max_rounds) {
            swarm.step();
        }
        match swarm.apply(ev) {
            Ok(outcome) => writeln!(
                out,
                "  event {lineno} @ round {}: {} → {}",
                swarm.round(),
                describe_membership_event(ev),
                describe_membership_outcome(&outcome)
            )?,
            Err(e) => writeln!(
                out,
                "  event {lineno} @ round {}: rejected ({e})",
                swarm.round()
            )?,
        }
    }

    let cfg = SwarmConfig {
        max_rounds: max_rounds.saturating_sub(swarm.round()),
        ..SwarmConfig::default()
    };
    let m = swarm.run(&cfg);
    writeln!(
        out,
        "proportional response: converged = {} after {} round(s); {} live agent(s)",
        m.converged,
        swarm.round(),
        swarm.live_agents()
    )?;

    // Max deviation from the exact BD allocation on the surviving topology.
    let live_snapshot = if swarm.live_agents() <= SWARM_BD_CHECK_MAX {
        match swarm.to_graph() {
            Ok(snap) => Some(snap),
            Err(e) => {
                writeln!(out, "BD cross-check skipped: {e}")?;
                None
            }
        }
    } else {
        writeln!(
            out,
            "BD cross-check skipped ({} live agents > {SWARM_BD_CHECK_MAX})",
            swarm.live_agents()
        )?;
        None
    };
    if let Some((live_g, slot_of)) = &live_snapshot {
        match decompose(live_g) {
            Ok(bd) => {
                let mut max_dev = 0.0f64;
                for (i, &slot) in slot_of.iter().enumerate() {
                    let want = bd.utility(live_g, i).to_f64();
                    max_dev = max_dev.max((m.utilities[slot] - want).abs());
                }
                writeln!(
                    out,
                    "max |U_swarm − U_BD| = {max_dev:.3e} over {} live agent(s)",
                    slot_of.len()
                )?;
            }
            Err(e) => writeln!(out, "BD cross-check skipped: {e}")?,
        }
    }

    // Empirical incentive ratio. The in-vivo proxy (spread of the
    // download-per-capacity rates) always prints; on small surviving rings
    // a grid of Sybil splits probes the best protocol-level deviation.
    let spread = swarm.fairness_spread();
    if spread.is_nan() {
        writeln!(
            out,
            "fairness spread max/min(Ū_v/w_v): n/a (no live capacity)"
        )?;
    } else {
        writeln!(out, "fairness spread max/min(Ū_v/w_v) = {spread:.9}")?;
    }
    match &live_snapshot {
        Some((live_g, _)) if live_g.is_ring() && live_g.n() <= SWARM_SYBIL_PROBE_MAX => {
            let honest = {
                let mut s = SoaSwarm::new(live_g);
                s.run(&SwarmConfig::default()).utilities
            };
            let weights = live_g.weights_f64();
            let mut best = 1.0f64;
            let mut best_agent = 0usize;
            let mut best_split = 4u32;
            for v in 0..live_g.n() {
                if weights[v] <= 0.0 || honest[v] <= 0.0 {
                    continue;
                }
                for k in 1..8u32 {
                    let w1 = weights[v] * f64::from(k) / 8.0;
                    let w2 = weights[v] - w1;
                    let mut s = SoaSwarm::with_strategies(live_g, |a| {
                        if a == v {
                            Strategy::Sybil { w1, w2 }
                        } else {
                            Strategy::Honest
                        }
                    });
                    let ratio = s.run(&SwarmConfig::default()).utilities[v] / honest[v];
                    if ratio > best {
                        best = ratio;
                        best_agent = v;
                        best_split = k;
                    }
                }
            }
            writeln!(
                out,
                "empirical incentive ratio ζ̂ = {best:.6} \
                 (Sybil grid: agent {best_agent}, split {best_split}/8·w; Theorem 8 bound: 2)"
            )?;
        }
        Some((live_g, _)) if !live_g.is_ring() => {
            writeln!(
                out,
                "Sybil probe skipped (surviving topology is not a ring)"
            )?;
        }
        Some((live_g, _)) => {
            writeln!(
                out,
                "Sybil probe skipped ({} live agents > {SWARM_SYBIL_PROBE_MAX})",
                live_g.n()
            )?;
        }
        None => {}
    }
    Ok(())
}

fn describe_membership_event(ev: &MembershipEvent) -> String {
    match ev {
        MembershipEvent::Join { capacity, peers } => {
            format!("join(w = {capacity}, peers {peers:?})")
        }
        MembershipEvent::Leave { agent } => format!("leave(agent {agent})"),
        MembershipEvent::Rewire { agent } => format!("rewire(agent {agent})"),
    }
}

fn describe_membership_outcome(outcome: &MembershipOutcome) -> String {
    match outcome {
        MembershipOutcome::Joined(v) => format!("joined as agent {v}"),
        MembershipOutcome::Left => "left".to_string(),
        MembershipOutcome::Rewired { dropped, added } => {
            format!("rewired: dropped {dropped}, added {added}")
        }
        MembershipOutcome::NoOp => "no-op".to_string(),
    }
}

/// Parse one membership-script event (a JSON object per line) for
/// [`cmd_swarm`]: `{"op": "join", "capacity": w, "peers": [..]}`,
/// `{"op": "leave", "agent": v}`, or `{"op": "rewire", "agent": v}`, each
/// with an optional `"round": r` naming the protocol round it fires at.
fn parse_membership_event(text: &str) -> Result<(usize, MembershipEvent), String> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| "event must be a JSON object".to_string())?;
    let pairs = split_top_level_pairs(body)?;
    let round = match field(&pairs, "round") {
        Ok(raw) => raw
            .parse::<usize>()
            .map_err(|_| "field `round` must be a round number".to_string())?,
        Err(_) => 0,
    };
    let ev = match unquote(field(&pairs, "op")?) {
        "join" => {
            let capacity = field(&pairs, "capacity")?
                .parse::<f64>()
                .map_err(|_| "field `capacity` must be a number".to_string())?;
            let inner = field(&pairs, "peers")?
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(']'))
                .ok_or_else(|| "`peers` must be an array".to_string())?;
            let peers = inner
                .split(',')
                .filter(|s| !s.trim().is_empty())
                .map(|s| {
                    s.trim()
                        .parse::<usize>()
                        .map_err(|_| "`peers` entries must be agent ids".to_string())
                })
                .collect::<Result<Vec<_>, String>>()?;
            MembershipEvent::Join { capacity, peers }
        }
        "leave" => MembershipEvent::Leave {
            agent: vertex_field(&pairs, "agent")?,
        },
        "rewire" => MembershipEvent::Rewire {
            agent: vertex_field(&pairs, "agent")?,
        },
        other => return Err(format!("unknown op `{other}`")),
    };
    Ok((round, ev))
}

/// Parse one churn-script event (a JSON object; `batch` nests one level of
/// objects inside a `deltas` array) into a [`Delta`]. Hand-rolled like
/// every other JSON surface in this workspace.
fn parse_delta(text: &str) -> Result<Delta, String> {
    let t = text.trim();
    let body = t
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| "event must be a JSON object".to_string())?;
    let pairs = split_top_level_pairs(body)?;
    let op = unquote(field(&pairs, "op")?);
    match op {
        "set_weight" => Ok(Delta::SetWeight {
            v: vertex_field(&pairs, "v")?,
            w: weight_field(&pairs, "w")?,
        }),
        "add_edge" => Ok(Delta::AddEdge {
            u: vertex_field(&pairs, "u")?,
            v: vertex_field(&pairs, "v")?,
        }),
        "remove_edge" => Ok(Delta::RemoveEdge {
            u: vertex_field(&pairs, "u")?,
            v: vertex_field(&pairs, "v")?,
        }),
        "batch" => {
            let arr = field(&pairs, "deltas")?;
            let inner = arr
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(']'))
                .ok_or_else(|| "`deltas` must be an array".to_string())?;
            let deltas = split_top_level_objects(inner)?
                .iter()
                .map(|o| parse_delta(o))
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Delta::Batch(deltas))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Split the inside of a JSON object into top-level `(key, raw value)`
/// pairs; values keep their raw text (quoted strings, numbers, arrays).
fn split_top_level_pairs(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let stripped = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected a quoted key at `{rest}`"))?;
        let end = stripped
            .find('"')
            .ok_or_else(|| "unterminated key".to_string())?;
        let key = stripped[..end].to_string();
        let value_part = stripped[end + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("expected `:` after key `{key}`"))?
            .trim_start();
        let mut depth = 0usize;
        let mut in_str = false;
        let mut split = value_part.len();
        for (i, ch) in value_part.char_indices() {
            match ch {
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => {
                    depth = depth
                        .checked_sub(1)
                        .ok_or_else(|| "unbalanced brackets".to_string())?;
                }
                ',' if !in_str && depth == 0 => {
                    split = i;
                    break;
                }
                _ => {}
            }
        }
        pairs.push((key, value_part[..split].trim().to_string()));
        rest = value_part[split..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(pairs)
}

/// Split the inside of a JSON array into its top-level `{…}` elements.
fn split_top_level_objects(body: &str) -> Result<Vec<String>, String> {
    let mut objs = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut start = None;
    for (i, ch) in body.char_indices() {
        match ch {
            '"' => in_str = !in_str,
            '{' if !in_str => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' if !in_str => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| "unbalanced braces in batch".to_string())?;
                if depth == 0 {
                    if let Some(s) = start.take() {
                        objs.push(body[s..=i].to_string());
                    }
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_str {
        return Err("unterminated batch".to_string());
    }
    Ok(objs)
}

fn field<'a>(pairs: &'a [(String, String)], key: &str) -> Result<&'a str, String> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn unquote(raw: &str) -> &str {
    raw.strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .unwrap_or(raw)
}

fn vertex_field(pairs: &[(String, String)], key: &str) -> Result<usize, String> {
    field(pairs, key)?
        .parse::<usize>()
        .map_err(|_| format!("field `{key}` must be a vertex index"))
}

fn weight_field(pairs: &[(String, String)], key: &str) -> Result<Rational, String> {
    unquote(field(pairs, key)?)
        .parse::<Rational>()
        .map_err(|_| format!("field `{key}` must be a rational weight"))
}

fn mark(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "VIOLATED"
    }
}

/// Usage text.
pub const USAGE: &str = "\
prs — resource sharing over rings (IPPS'20 reproduction)

USAGE:
    prs <command> <instance-file> [args]

COMMANDS:
    decompose <file>              bottleneck decomposition, classes, utilities
    allocate <file>               the BD allocation, edge by edge
    dynamics <file> [eps]         run the proportional response protocol
    attack <file> <vertex>        optimal Sybil attack on a ring agent
    general-attack <file> <vertex>   Definition 7 attack on any graph
    certified-attack <file> <vertex> symbolic (certified) attack optimum
    eg <file>                     Eisenberg–Gale solve vs Proposition 6
    sweep <file> <vertex>         exact misreport sweep (Prop. 11 intervals)
    update <file> <script.jsonl>  replay a churn script against one
                                  incremental session; each line is an event
                                  ({\"op\": set_weight|add_edge|remove_edge|batch})
    watch <file> <script.jsonl> [dump-dir] [slo-ms]
                                  replay a churn script with live metrics:
                                  streaming p50/p90/p99 snapshot lines
                                  mid-replay, SLO watchdog (slo-ms = latency
                                  ceiling on the delta spans), and anomaly
                                  flight-recorder dumps under dump-dir
    swarm <file> [--agents N] [--rounds R] [--churn script.jsonl]
                                  run the struct-of-arrays swarm engine to
                                  convergence (--agents: tile the ring's
                                  weights to N agents; --churn: JSONL
                                  membership events, one per line,
                                  {\"op\": join|leave|rewire, \"round\": r});
                                  reports the convergence round, max utility
                                  deviation from the exact BD allocation,
                                  and the empirical incentive ratio
    audit <file> [--stats]        run every paper-claim check on a ring
                                  (--stats: print flow-engine counters)

TRACING (any command):
    --trace                       print a span/counter summary after the run
    --trace=FILE                  write Chrome trace-event JSON (Perfetto)
    --trace-jsonl=FILE            write the raw event log, one JSON per line

INSTANCE FILES:
    ring                          # or `path` / `graph`
    weights: 3 1 4 1/2 5          # exact rationals
    edges: 0-1 1-2                # only for `graph`
";

#[cfg(test)]
mod tests {
    use super::*;
    use prs_core::graph::builders;
    use prs_core::numeric::int;

    fn ring() -> Graph {
        builders::ring(vec![int(3), int(1), int(4), int(1), int(5)]).unwrap()
    }

    fn capture(f: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) -> String {
        let mut buf = Vec::new();
        f(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn decompose_output_lists_all_agents() {
        let out = capture(|w| cmd_decompose(&ring(), w));
        for v in 0..5 {
            assert!(out.contains(&format!("agent {v}")), "{out}");
        }
        assert!(out.contains("α_0 = 1/2"), "{out}");
    }

    #[test]
    fn allocate_output_balances() {
        let out = capture(|w| cmd_allocate(&ring(), w));
        assert!(out.contains("U_0 = 5"), "{out}");
    }

    #[test]
    fn dynamics_reports_convergence() {
        let out = capture(|w| cmd_dynamics(&ring(), 1e-8, w));
        assert!(out.contains("converged = true"), "{out}");
    }

    #[test]
    fn attack_reports_ratio_within_bound() {
        let out = capture(|w| cmd_attack(&ring(), 0, w));
        assert!(out.contains("incentive ratio"), "{out}");
        assert!(!out.contains("error"), "{out}");
    }

    #[test]
    fn attack_rejects_non_ring() {
        let path = builders::path(vec![int(1), int(2), int(3)]).unwrap();
        let out = capture(|w| cmd_attack(&path, 0, w));
        assert!(out.contains("requires a ring"), "{out}");
    }

    #[test]
    fn general_attack_works_on_graphs() {
        let star = builders::star(vec![int(4), int(1), int(2), int(3)]).unwrap();
        let out = capture(|w| cmd_general_attack(&star, 0, w));
        assert!(out.contains("ζ_v lower bound"), "{out}");
        let leaf = capture(|w| cmd_general_attack(&star, 1, w));
        assert!(leaf.contains("degree < 2"), "{leaf}");
    }

    #[test]
    fn audit_prints_all_checks() {
        let out = capture(|w| cmd_audit(&ring(), false, w));
        assert_eq!(out.matches(": ok").count(), 8, "{out}");
        assert!(!out.contains("VIOLATED"), "{out}");
        assert!(!out.contains("flow-engine stats"), "{out}");
    }

    #[test]
    fn audit_with_stats_prints_counters() {
        let out = capture(|w| cmd_audit(&ring(), true, w));
        assert_eq!(out.matches(": ok").count(), 8, "{out}");
        assert!(out.contains("flow-engine stats"), "{out}");
        assert!(out.contains("exact max-flows"), "{out}");
        assert!(out.contains("int max-flows"), "{out}");
        assert!(out.contains("Dinkelbach iterations"), "{out}");
        assert!(out.contains("session"), "{out}");
    }

    #[test]
    fn audit_stats_json_line_is_valid_json() {
        // Regression: the machine-readable stats line must never carry a
        // bare `NaN` (no JSON representation) — the rate keys are omitted
        // when no rounds of their kind ran.
        let out = capture(|w| cmd_audit(&ring(), true, w));
        let json_line = out
            .lines()
            .find(|l| l.trim_start().starts_with("json "))
            .expect("stats json line present");
        assert!(!json_line.contains("NaN"), "{json_line}");
        let body = json_line.trim_start().trim_start_matches("json ");
        assert!(body.starts_with('{') && body.ends_with('}'), "{body}");
        assert!(body.contains("\"exact_max_flows\""), "{body}");
        assert!(body.contains("\"int_max_flows\""), "{body}");
    }

    #[test]
    fn sweep_reports_intervals_and_breakpoints() {
        let out = capture(|w| cmd_sweep(&ring(), 0, w));
        assert!(out.contains("misreport sweep for agent 0"), "{out}");
        assert!(out.contains("constant-shape intervals"), "{out}");
        assert!(out.contains("interval 0"), "{out}");
    }

    #[test]
    fn sweep_rejects_out_of_range_vertex() {
        let out = capture(|w| cmd_sweep(&ring(), 99, w));
        assert!(out.contains("out of range"), "{out}");
    }

    #[test]
    fn certified_attack_reports() {
        let out = capture(|w| cmd_certified_attack(&ring(), 0, w));
        assert!(out.contains("certified payoff"), "{out}");
    }

    #[test]
    fn eg_command_compares_utilities() {
        let out = capture(|w| cmd_eg(&ring(), w));
        assert!(out.contains("EG utility"), "{out}");
        assert!(out.contains("Eisenberg"), "{out}");
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let degenerate = Graph::new(vec![int(1), int(1), int(1)], &[(0, 1)]).unwrap();
        let out = capture(|w| cmd_decompose(&degenerate, w));
        assert!(out.contains("error"), "{out}");
    }

    #[test]
    fn delta_parser_handles_nesting_and_rationals() {
        use prs_core::numeric::ratio;
        let d = parse_delta(
            r#"{"op":"batch","deltas":[{"op":"set_weight","v":2,"w":"7/3"},{"op":"remove_edge","u":1,"v":2}]}"#,
        )
        .unwrap();
        assert_eq!(
            d,
            Delta::Batch(vec![
                Delta::SetWeight {
                    v: 2,
                    w: ratio(7, 3)
                },
                Delta::RemoveEdge { u: 1, v: 2 },
            ])
        );
        // Bare-number weights work too.
        assert_eq!(
            parse_delta(r#"{"op":"set_weight","v":0,"w":5}"#).unwrap(),
            Delta::SetWeight { v: 0, w: int(5) }
        );
        assert!(parse_delta("[1,2]").is_err());
        assert!(parse_delta(r#"{"op":"warp"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(parse_delta(r#"{"op":"set_weight","v":0}"#)
            .unwrap_err()
            .contains("missing field `w`"));
    }

    #[test]
    fn update_replays_script_and_reports_tiers() {
        // Ring edges are (0,1)…(4,0): re-adding (0,1) and a self-cancelling
        // batch are both served `unchanged`; the weight moves re-decompose.
        let script = r#"
# churn script
{"op":"set_weight","v":0,"w":"7/2"}
{"op":"batch","deltas":[{"op":"add_edge","u":0,"v":2},{"op":"remove_edge","u":0,"v":2}]}
{"op":"add_edge","u":0,"v":1}
{"op":"set_weight","v":4,"w":6}
"#;
        let out = capture(|w| cmd_update(&ring(), script, false, w));
        assert!(out.contains("initial decomposition"), "{out}");
        assert!(out.contains("→ unchanged"), "{out}");
        assert!(out.contains("replayed 4 event(s)"), "{out}");
        assert!(out.contains("2 unchanged"), "{out}");
        assert!(out.contains("0 rejected"), "{out}");
        assert!(out.contains("final decomposition"), "{out}");
        assert!(out.contains("agent 0: w = 7/2"), "{out}");
        assert!(out.contains("agent 4: w = 6"), "{out}");
        assert!(!out.contains("flow-engine stats"), "{out}");
    }

    #[test]
    fn update_reports_rejections_and_continues() {
        let script = "{\"op\":\"set_weight\",\"v\":99,\"w\":\"1\"}\n\
                      {\"op\":\"set_weight\",\"v\":1,\"w\":\"2\"}\n";
        let out = capture(|w| cmd_update(&ring(), script, false, w));
        assert!(out.contains("event 1: rejected"), "{out}");
        assert!(out.contains("1 rejected"), "{out}");
        assert!(out.contains("replayed 2 event(s)"), "{out}");
        assert!(out.contains("agent 1: w = 2"), "{out}");
    }

    #[test]
    fn update_script_errors_abort_with_line_numbers() {
        let out = capture(|w| cmd_update(&ring(), "{\"op\":\"warp\"}", false, w));
        assert!(out.contains("error: script line 1"), "{out}");
        assert!(out.contains("unknown op"), "{out}");
    }

    #[test]
    fn update_with_stats_prints_delta_tier_counters() {
        let script = "{\"op\":\"set_weight\",\"v\":0,\"w\":\"2\"}\n\
                      {\"op\":\"add_edge\",\"u\":0,\"v\":1}\n";
        let out = capture(|w| cmd_update(&ring(), script, true, w));
        assert!(out.contains("flow-engine stats"), "{out}");
        assert!(out.contains("delta unchanged"), "{out}");
        assert!(out.contains("delta recertified"), "{out}");
        assert!(out.contains("\"delta_unchanged\""), "{out}");
    }

    // The metrics layer is process-global; the watch tests install/reset
    // it, so they must not interleave with each other.
    static WATCH_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn watch_prints_live_snapshots_and_summary() {
        let _g = WATCH_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let script = "{\"op\":\"set_weight\",\"v\":0,\"w\":\"7/2\"}\n\
                      {\"op\":\"set_weight\",\"v\":4,\"w\":6}\n";
        // Generous 10s SLO: watchdog armed but quiet, output deterministic.
        let out = capture(|w| cmd_watch(&ring(), script, None, Some(10_000), w));
        assert!(out.contains("initial decomposition"), "{out}");
        assert!(out.contains("event 1:"), "{out}");
        let snaps: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with("{\"layer\": \""))
            .collect();
        assert!(!snaps.is_empty(), "live snapshot lines expected:\n{out}");
        assert!(
            snaps
                .iter()
                .any(|l| l.contains("\"name\": \"delta_apply\"")),
            "{out}"
        );
        for l in &snaps {
            assert!(
                l.contains("\"count\": ")
                    && l.contains("\"p50_ns\": ")
                    && l.contains("\"p99_ns\": "),
                "snapshot schema: {l}"
            );
        }
        assert!(out.contains("watch: 2 event(s)"), "{out}");
        assert!(out.contains("flight dump(s)"), "{out}");
    }

    #[test]
    fn watch_zero_slo_fires_watchdog() {
        let _g = WATCH_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let script = "{\"op\":\"set_weight\",\"v\":0,\"w\":\"9/2\"}\n";
        let out = capture(|w| cmd_watch(&ring(), script, None, Some(0), w));
        assert!(out.contains("watch: 1 event(s)"), "{out}");
        assert!(!out.contains(" 0 SLO breach(es)"), "{out}");
    }

    #[test]
    fn swarm_reports_convergence_deviation_and_ratio() {
        let out = capture(|w| cmd_swarm(&ring(), None, None, None, w));
        assert!(out.contains("struct-of-arrays swarm: 5 agent(s)"), "{out}");
        assert!(out.contains("converged = true"), "{out}");
        assert!(out.contains("5 live agent(s)"), "{out}");
        assert!(out.contains("max |U_swarm − U_BD| = "), "{out}");
        assert!(out.contains("fairness spread"), "{out}");
        assert!(out.contains("empirical incentive ratio ζ̂ = "), "{out}");
        assert!(out.contains("Theorem 8 bound: 2"), "{out}");
    }

    #[test]
    fn swarm_agents_flag_tiles_the_ring() {
        let out = capture(|w| cmd_swarm(&ring(), Some(8), None, None, w));
        assert!(out.contains("struct-of-arrays swarm: 8 agent(s)"), "{out}");
        assert!(out.contains("converged = true"), "{out}");
        let path = builders::path(vec![int(1), int(2), int(3)]).unwrap();
        let out = capture(|w| cmd_swarm(&path, Some(8), None, None, w));
        assert!(out.contains("requires a ring instance"), "{out}");
    }

    #[test]
    fn swarm_rounds_cap_stops_early() {
        let out = capture(|w| cmd_swarm(&ring(), None, Some(3), None, w));
        assert!(out.contains("converged = false after 3 round(s)"), "{out}");
    }

    #[test]
    fn swarm_rejects_weights_without_a_usable_f64_capacity() {
        let huge: Rational = format!("1{}", "0".repeat(400)).parse().unwrap();
        let g = builders::ring(vec![int(1), int(2), huge.clone()]).unwrap();
        let out = capture(|w| cmd_swarm(&g, None, None, None, w));
        assert!(
            out.contains("error: weight of agent 2 has no finite f64 capacity"),
            "{out}"
        );
        assert!(!out.contains("converged"), "{out}");
        let g = builders::ring(vec![int(1), int(2), huge.recip()]).unwrap();
        let out = capture(|w| cmd_swarm(&g, Some(6), None, None, w));
        assert!(
            out.contains("error: positive weight of agent 2 underflows"),
            "{out}"
        );
    }

    #[test]
    fn dynamics_rejects_weights_without_a_usable_f64_capacity() {
        let huge: Rational = format!("1{}", "0".repeat(400)).parse().unwrap();
        let g = builders::ring(vec![huge.clone(), int(1), int(4), int(1), int(5)]).unwrap();
        let out = capture(|w| cmd_dynamics(&g, 1e-9, w));
        assert!(
            out.contains("error: weight of agent 0 has no finite f64 capacity"),
            "{out}"
        );
        assert!(!out.contains("converged"), "{out}");
        let g = builders::ring(vec![int(1), int(2), huge.recip()]).unwrap();
        let out = capture(|w| cmd_dynamics(&g, 1e-9, w));
        assert!(
            out.contains("error: positive weight of agent 2 underflows"),
            "{out}"
        );
        assert!(!out.contains("converged"), "{out}");
    }

    #[test]
    fn swarm_churn_script_applies_events_between_rounds() {
        let script = "# join a newcomer on arc (0,2), then retire agent 1\n\
                      {\"op\":\"join\",\"capacity\":2,\"peers\":[0,2],\"round\":3}\n\
                      {\"op\":\"leave\",\"agent\":1,\"round\":5}\n";
        let out = capture(|w| cmd_swarm(&ring(), None, None, Some(script), w));
        assert!(out.contains("event 2 @ round 3: join"), "{out}");
        assert!(out.contains("joined as agent 5"), "{out}");
        assert!(
            out.contains("event 3 @ round 5: leave(agent 1) → left"),
            "{out}"
        );
        assert!(out.contains("converged = true"), "{out}");
        assert!(out.contains("5 live agent(s)"), "{out}");
        // The surviving topology is a 5-ring again, so both cross-checks run.
        assert!(out.contains("max |U_swarm − U_BD| = "), "{out}");
        assert!(out.contains("empirical incentive ratio ζ̂ = "), "{out}");
    }

    #[test]
    fn swarm_rejects_malformed_churn_lines() {
        let out = capture(|w| cmd_swarm(&ring(), None, None, Some("{\"op\":\"frobnicate\"}"), w));
        assert!(
            out.contains("error: script line 1: unknown op `frobnicate`"),
            "{out}"
        );
        let out = capture(|w| {
            cmd_swarm(
                &ring(),
                None,
                None,
                Some("{\"op\":\"join\",\"peers\":[0]}"),
                w,
            )
        });
        assert!(out.contains("missing field `capacity`"), "{out}");
    }

    #[test]
    fn swarm_reports_rejected_events_without_dying() {
        // Leaving an unknown agent is a domain error, not a crash; the run
        // continues to convergence.
        let script = "{\"op\":\"leave\",\"agent\":99}\n";
        let out = capture(|w| cmd_swarm(&ring(), None, None, Some(script), w));
        assert!(out.contains("rejected ("), "{out}");
        assert!(out.contains("converged = true"), "{out}");
    }

    #[test]
    fn attack_rejects_zero_weight_agent() {
        // A zero-weight ring decomposes (the agent is just inert), but the
        // attack model divides by honest utility; both attack commands must
        // refuse with a message, not panic in the sweep.
        let g = prs_core::graph::builders::ring(vec![int(0), int(2), int(3)]).unwrap();
        let out = capture(|w| cmd_attack(&g, 1, w));
        assert!(out.contains("non-positive weight"), "{out}");
        let out = capture(|w| cmd_certified_attack(&g, 1, w));
        assert!(out.contains("non-positive weight"), "{out}");
    }
}
