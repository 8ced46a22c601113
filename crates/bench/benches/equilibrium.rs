//! Benchmarks for the alternative equilibrium engines: the Eisenberg–Gale
//! mirror-descent solver and the asynchronous protocol engine, against the
//! synchronous baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use prs_bench::ring_family;
use prs_core::dynamics::{AsyncEngine, Schedule};
use prs_core::eg::{solve, EgConfig};
use prs_core::prelude::*;

fn eg_solver(c: &mut Criterion) {
    let mut g = c.benchmark_group("eg_solver");
    g.sample_size(10);
    for n in [6usize, 12] {
        let ring = ring_family(6600 + n as u64, 1, n, 1, 9).pop().unwrap();
        g.bench_function(format!("mirror_descent/n={n}"), |b| {
            b.iter(|| {
                solve(
                    &ring,
                    &EgConfig {
                        max_iters: 20_000,
                        ..EgConfig::default()
                    },
                )
            })
        });
    }
    g.finish();
}

fn async_vs_sync(c: &mut Criterion) {
    let mut g = c.benchmark_group("async_vs_sync");
    g.sample_size(10);
    let ring = ring_family(6700, 1, 10, 1, 9).pop().unwrap();
    let bd = decompose(&ring).unwrap();
    let target: Vec<f64> = bd.utilities(&ring).iter().map(|u| u.to_f64()).collect();
    g.bench_function("sync_to_1e-6", |b| {
        b.iter(|| run_until_close(&mut SoaSwarm::new(&ring), &target, 1e-6, 1_000_000))
    });
    g.bench_function("async_round_robin_to_1e-6", |b| {
        b.iter(|| {
            let mut eng = AsyncEngine::new(&ring, Schedule::RoundRobin);
            eng.run_until_close(&target, 1e-6, 1_000_000)
        })
    });
    g.finish();
}

criterion_group!(benches, eg_solver, async_vs_sync);
criterion_main!(benches);
