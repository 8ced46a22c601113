//! The Sybil context against cold decompositions.
//!
//! Every agent of random rings (n = 3..9) and of the shipped
//! `five_ring.prs` and `lower_bound_k6.prs` runs the audit's per-agent
//! checks through one context. Then:
//!
//! * the context's honest split, `U_v` and class equal those read off a
//!   cold `decompose` + `allocate` of the ring;
//! * every entry of its split table, decomposition and copy utilities,
//!   equals a cold `decompose` of its split path;
//! * within the attack, no split is decomposed twice: no two
//!   `sybil.split_eval` spans carry the same `w1`, their count is the
//!   `evaluations` the outcome and the `sybil.attack` span report, and the
//!   span counts the honest split Lemma 9 decomposed as `reused`.

use prs::prelude::*;
use prs::sybil::SybilContext;
use prs::trace;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn instances() -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(2020);
    let mut rings: Vec<Graph> = (3..=9)
        .flat_map(|n| [1, 2].map(|_| prs::graph::random::random_ring(&mut rng, n, 1, 12)))
        .collect();
    for file in ["five_ring.prs", "lower_bound_k6.prs"] {
        let path = format!("{}/instances/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).expect("shipped instance");
        rings.push(parse_instance(&text).expect("shipped instance parses"));
    }
    rings
}

/// The `attr` of one trace event.
fn attr<'a>(e: &'a trace::TraceEvent, key: &str) -> &'a str {
    let found = e.attrs.iter().find(|(k, _)| *k == key);
    &found.unwrap_or_else(|| panic!("{} has no {key}", e.name)).1
}

#[test]
fn split_table_matches_cold_decompositions() {
    // `prs audit`'s optimizer settings.
    let cfg = AttackConfig::new()
        .with_grid(16)
        .with_zoom_levels(3)
        .with_keep(2);
    for g in instances() {
        let bd = decompose(&g).unwrap();
        let alloc = allocate(&g, &bd);
        for mut ctx in SybilContext::for_agents(&g, 0..g.n()) {
            let v = ctx.family().agent();
            let [succ, pred] = [0, 1].map(|i| g.neighbors(v)[i]);
            assert_eq!(
                ctx.honest_split(),
                &(alloc.sent(v, succ), alloc.sent(v, pred))
            );
            assert_eq!(ctx.honest_utility(), &bd.utility(&g, v));
            let class = match bd.class_of(v) {
                AgentClass::B => AgentClass::B,
                _ => AgentClass::C,
            };
            assert_eq!(ctx.ring_class(), class);
            assert_eq!(ctx.alpha(), bd.alpha_of(v));

            // The audit's per-agent checks, in its order, the attack traced.
            let (honest, split) = ctx.lemma9_check();
            assert_eq!(honest, split, "Lemma 9 on {:?} v={v}", g.weights());
            let case = ctx.classify_initial_path();
            assert!(case.is_ok(), "{case:?} on {:?} v={v}", g.weights());
            trace::clear();
            trace::enable();
            let out = ctx.best_sybil_split(&cfg);
            trace::disable();
            let events = trace::take().events;
            let mut evals: Vec<&str> = events
                .iter()
                .filter(|e| (e.layer, e.name) == ("sybil", "split_eval"))
                .map(|e| attr(e, "w1"))
                .collect();
            let attack = events
                .iter()
                .find(|e| (e.layer, e.name) == ("sybil", "attack"))
                .expect("one attack span");
            assert_eq!(attr(attack, "evaluations"), out.evaluations.to_string());
            assert_eq!(evals.len(), out.evaluations);
            // Lemma 9 decomposed the honest split, so the attack reads it.
            assert!(attr(attack, "reused").parse::<usize>().unwrap() >= 1);
            evals.sort_unstable();
            let before = evals.len();
            evals.dedup();
            assert_eq!(
                evals.len(),
                before,
                "a split decomposed twice in one attack on {:?} v={v}",
                g.weights()
            );
            let w2_star = g.weight(v) - &out.best.w1;
            if let Some(rep) = ctx.audit_stages(&out.best.w1, &w2_star) {
                assert!(
                    rep.all_hold(),
                    "{:?} on {:?} v={v}",
                    rep.checks,
                    g.weights()
                );
            }

            for ((w1, w2), entry) in ctx.splits() {
                let (p, v1, v2) = ctx.family().path_at(w1, w2);
                let cold = decompose(&p).ok().map(|bd| {
                    let payoff = (bd.utility(&p, v1), bd.utility(&p, v2));
                    (bd, payoff)
                });
                assert_eq!(
                    entry,
                    &cold,
                    "table entry ({w1}, {w2}) on {:?} v={v}",
                    g.weights()
                );
            }
        }
    }
}
