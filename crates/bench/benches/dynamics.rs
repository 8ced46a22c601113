//! Throughput and convergence cost of the proportional response engines,
//! including the speedup of a convergence sweep over the shared fan-out.

use criterion::{criterion_group, criterion_main, Criterion};
use prs_bench::ring_family;
use prs_core::bd::par::par_map_indexed;
use prs_core::prelude::*;
use std::hint::black_box;

fn rounds_per_second(c: &mut Criterion) {
    let mut g = c.benchmark_group("dynamics_step");
    for n in [16usize, 128, 1024] {
        let ring = ring_family(9900 + n as u64, 1, n, 1, 20).pop().unwrap();
        g.bench_function(format!("f64/n={n}"), |b| {
            let mut swarm = SoaSwarm::new(&ring);
            b.iter(|| {
                swarm.step();
                black_box(swarm.utilities()[0])
            })
        });
    }
    let small = ring_family(9950, 1, 8, 1, 20).pop().unwrap();
    g.bench_function("exact/n=8", |b| {
        b.iter(|| {
            // Fresh engine per iteration: exact denominators grow per round.
            let mut eng = ExactEngine::new(&small);
            eng.run(3);
            black_box(eng.utilities()[0].clone())
        })
    });
    g.finish();
}

fn convergence_to_equilibrium(c: &mut Criterion) {
    let mut g = c.benchmark_group("dynamics_converge");
    g.sample_size(10);
    for n in [8usize, 32] {
        let ring = ring_family(9970 + n as u64, 1, n, 1, 10).pop().unwrap();
        let bd = decompose(&ring).unwrap();
        let target: Vec<f64> = bd.utilities(&ring).iter().map(|u| u.to_f64()).collect();
        g.bench_function(format!("to_1e-6/n={n}"), |b| {
            b.iter(|| run_until_close(&mut SoaSwarm::new(&ring), &target, 1e-6, 2_000_000))
        });
    }
    g.finish();
}

fn parallel_sweep_speedup(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_sweep");
    g.sample_size(10);
    let instances: Vec<(Graph, Vec<f64>)> = ring_family(9999, 16, 10, 1, 10)
        .into_iter()
        .map(|ring| {
            let bd = decompose(&ring).unwrap();
            let target = bd.utilities(&ring).iter().map(|u| u.to_f64()).collect();
            (ring, target)
        })
        .collect();
    for threads in [1usize, 4] {
        g.bench_function(format!("16rings/threads={threads}"), |b| {
            b.iter(|| {
                par_map_indexed(instances.len(), threads, |i| {
                    let (ring, target) = &instances[i];
                    run_until_close(&mut SoaSwarm::new(ring), target, 1e-6, 1_000_000)
                })
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    rounds_per_second,
    convergence_to_equilibrium,
    parallel_sweep_speedup
);
criterion_main!(benches);
