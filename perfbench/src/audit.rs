//! `audit`: the paper-claim battery of `prs audit` over a seeded batch of
//! rings (n ∈ {8, 12, 16}, weights 1..=50) plus the two shipped instances.
//!
//! One operation is one `audit_paper_claims` call; a pass audits the whole
//! batch. Set-up is `cmd_audit`'s own: parse the instance file and build the
//! `RingInstance` (which decomposes it), for every instance of the batch.

use crate::gen::{self, AuditInstance};
use crate::layers::{self, Counts};
use crate::stats::{median, us};
use crate::{cli, schedule, Args, Report};
use prs_core::prelude::*;
use std::ffi::OsStr;
use std::time::Instant;

/// `cmd_audit`'s Sybil-optimizer settings and sweep density.
fn attack_config() -> AttackConfig {
    AttackConfig::new()
        .with_grid(16)
        .with_zoom_levels(3)
        .with_keep(2)
}
const SWEEP_GRID: usize = 12;
/// One pass, its set-ups and checks included, on the reference machine.
const NOMINAL_PASS_S: f64 = 5.5;

struct Setup {
    rings: Vec<RingInstance>,
    parse_us: f64,
    seconds: f64,
}

fn setup(batch: &[AuditInstance]) -> Result<Setup, String> {
    let start = Instant::now();
    let mut parse_us = 0.0;
    let mut rings = Vec::with_capacity(batch.len());
    for inst in batch {
        let t = Instant::now();
        let parsed = parse_instance(&inst.text);
        parse_us += us(t.elapsed());
        let ring = parsed
            .and_then(|g| RingInstance::new(g.weights().to_vec()))
            .map_err(|e| format!("{}: {e}", inst.label))?;
        rings.push(ring);
    }
    Ok(Setup {
        rings,
        parse_us,
        seconds: start.elapsed().as_secs_f64(),
    })
}

#[derive(Default)]
struct Pass {
    audits: Vec<PaperAudit>,
    /// Each audit's duration, µs.
    latencies_us: Vec<f64>,
    /// The set-ups of the batch made during the pass, s.
    setups_s: Vec<f64>,
    parse_us: Vec<f64>,
    /// Σ audit durations, s.
    seconds: f64,
    /// The whole pass, set-ups included, s.
    wall_s: f64,
    /// The counters the audits moved (the set-ups' excluded).
    counts: Counts,
}

/// Audit every instance of the batch, each from a fresh set-up of the whole
/// batch: the set-up samples then spread over the run as the audits do, so
/// a few seconds of interference on a shared machine cannot hold them all.
fn pass(batch: &[AuditInstance]) -> Result<Pass, String> {
    let start = Instant::now();
    let cfg = attack_config();
    let mut p = Pass::default();
    for i in 0..batch.len() {
        let s = setup(batch)?;
        p.setups_s.push(s.seconds);
        p.parse_us.push(s.parse_us);
        let ((audit, d), counts) = layers::counted(|| {
            let t = Instant::now();
            (
                audit_paper_claims(&s.rings[i], &cfg, SWEEP_GRID),
                t.elapsed(),
            )
        });
        p.audits.push(audit);
        p.latencies_us.push(us(d));
        p.seconds += d.as_secs_f64();
        for (name, n) in counts {
            *p.counts.entry(name).or_default() += n;
        }
    }
    p.wall_s = start.elapsed().as_secs_f64();
    Ok(p)
}

/// Every claim holds and max ζ ≤ 2, per audited instance.
fn check_audits(batch: &[AuditInstance], audits: &[PaperAudit], rep: &mut Report) {
    let two = Rational::from_integer(2);
    for (inst, a) in batch.iter().zip(audits) {
        rep.check(a.all_hold() && a.max_ratio <= two, || {
            format!("{}: audit {a:?}", inst.label)
        });
    }
}

pub fn run(args: &Args, rep: &mut Report) {
    let batch = gen::audit_batch(args.seed);
    let mut passes = Vec::new();
    for _ in schedule(args.seconds, NOMINAL_PASS_S) {
        let p = match pass(&batch) {
            Ok(p) => p,
            Err(e) => return rep.check(false, || e),
        };
        check_audits(&batch, &p.audits, rep);
        rep.note_peak_rss();
        eprintln!("perfbench: pass {}: {:.4} s", passes.len() + 1, p.seconds);
        passes.push(p);
    }
    let all = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let pass_s: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    let ops: Vec<Vec<f64>> = passes.iter().map(|p| p.latencies_us.clone()).collect();
    rep.set_timings(&all(|p| &p.setups_s), &pass_s, &ops);

    if args.trace {
        rep.set("audit_batch_s", rep.metrics["pass_s"]);
        rep.set("core.parse_us", median(&all(|p| &p.parse_us)));
        layers::set_counter_metrics(rep, &passes[0].counts);
        let mut counts: Vec<Counts> = passes.iter().map(|p| p.counts.clone()).collect();
        let (p, trace, wall) = layers::traced(|| pass(&batch));
        match p {
            Ok(p) => {
                check_audits(&batch, &p.audits, rep);
                counts.push(p.counts);
            }
            Err(e) => rep.check(false, || e),
        }
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        layers::record_trace(rep, &trace, wall, median(&walls));
        // With more than one worker, the flow and session counts depend on
        // which worker's pooled session serves which sweep point (see
        // README.md, Count repeatability); `run.sh` keeps the run to one.
        if std::thread::available_parallelism().map_or(1, |n| n.get()) == 1 {
            layers::check_repeat(rep, &counts);
        }
    }
}

/// `prs audit` on the seed's first ring must print the same claim marks and
/// max ζ as the in-process audit.
pub fn parity(args: &Args, rep: &mut Report) -> Result<(), String> {
    let batch = gen::audit_batch(args.seed);
    let inst = &batch[0];
    let ring = parse_instance(&inst.text)
        .and_then(|g| RingInstance::new(g.weights().to_vec()))
        .map_err(|e| e.to_string())?;
    let want = audit_paper_claims(&ring, &attack_config(), SWEEP_GRID);

    let dir = cli::IoDir::new(&args.io_dir, "audit")?;
    let file = dir.write("ring.prs", &inst.text)?;
    let (out, seconds) = cli::run_prs(&args.prs, &[OsStr::new("audit"), file.as_os_str()])?;
    rep.set("cli.audit_s", seconds);
    let marks: Vec<bool> = out
        .lines()
        .filter_map(|l| {
            let l = l.trim_end();
            if l.ends_with(": ok") {
                Some(true)
            } else if l.ends_with(": VIOLATED") {
                Some(false)
            } else {
                None
            }
        })
        .collect();
    let max_ratio = out
        .lines()
        .find(|l| l.contains("max ζ_v observed"))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|r| r.split_whitespace().next())
        .unwrap_or("");
    let expected = [
        want.prop3,
        want.prop6,
        want.lemma9,
        want.theorem10,
        want.prop11,
        want.cases,
        want.stages,
        want.theorem8,
    ];
    rep.check(
        marks == expected && max_ratio == want.max_ratio.to_string(),
        || {
            format!(
                "`prs audit` printed claims {marks:?} and max ζ {max_ratio}, in-process {want:?}"
            )
        },
    );
    Ok(())
}
