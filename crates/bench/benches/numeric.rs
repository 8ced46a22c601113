//! Microbenchmarks for the exact-arithmetic substrate.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use prs_core::numeric::{BigInt, BigUint, Rational};
use std::hint::black_box;

fn biguint_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("biguint");
    for limbs in [4usize, 32, 128] {
        let a = BigUint::from_limbs(
            (0..limbs as u32)
                .map(|i| i.wrapping_mul(0x9E3779B9) | 1)
                .collect(),
        );
        let b = BigUint::from_limbs(
            (0..limbs as u32)
                .map(|i| i.wrapping_mul(0x85EBCA6B) | 1)
                .collect(),
        );
        g.bench_function(format!("mul/{limbs}limbs"), |bench| {
            bench.iter(|| black_box(&a) * black_box(&b))
        });
        g.bench_function(format!("div_rem/{limbs}limbs"), |bench| {
            let prod = &a * &b;
            bench.iter(|| black_box(&prod).div_rem(black_box(&b)))
        });
        g.bench_function(format!("gcd/{limbs}limbs"), |bench| {
            bench.iter(|| prs_core::numeric::gcd::gcd(black_box(&a), black_box(&b)))
        });
    }
    g.finish();
}

fn rational_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("rational");
    let a = Rational::from_ratio(123_456_789, 987_654_321);
    let b = Rational::from_ratio(555_555_557, 333_333_331);
    g.bench_function("add", |bench| bench.iter(|| black_box(&a) + black_box(&b)));
    g.bench_function("mul", |bench| bench.iter(|| black_box(&a) * black_box(&b)));
    g.bench_function("cmp", |bench| {
        bench.iter(|| black_box(&a).cmp(black_box(&b)))
    });
    g.bench_function("sum_chain_100", |bench| {
        let terms: Vec<Rational> = (1..=100).map(|i| Rational::from_ratio(1, i)).collect();
        bench.iter_batched(
            || terms.clone(),
            |ts| ts.iter().sum::<Rational>(),
            BatchSize::SmallInput,
        )
    });

    // The audit's operand scale: α-ratios w(Γ(S))/w(S) over weights 1..50,
    // then the same operations with one numerator just above 2⁶³, which
    // takes them off the word path onto the limb kernels.
    let x = Rational::from_ratio(137, 211);
    let alpha = Rational::from_ratio(89, 173);
    let above = Rational::new(BigInt::from((1u64 << 63) + 5), BigUint::from(211u32));
    for (name, y) in [("alpha", &alpha), ("above_2e63", &above)] {
        g.bench_function(format!("add/{name}"), |bench| {
            bench.iter(|| black_box(&x) + black_box(y))
        });
        g.bench_function(format!("sub/{name}"), |bench| {
            bench.iter(|| black_box(&x) - black_box(y))
        });
        g.bench_function(format!("mul/{name}"), |bench| {
            bench.iter(|| black_box(&x) * black_box(y))
        });
        g.bench_function(format!("div/{name}"), |bench| {
            bench.iter(|| black_box(&x) / black_box(y))
        });
        g.bench_function(format!("cmp/{name}"), |bench| {
            bench.iter(|| black_box(&x).cmp(black_box(y)))
        });
    }
    g.bench_function("alpha_sum/weights_1_50", |bench| {
        // Sixteen ratios of weight sums drawn from 1..50, summed.
        let mut seed = 0x2545_f491u64;
        let mut weight = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            1 + (seed >> 33) as i64 % 50
        };
        let terms: Vec<Rational> = (0..16)
            .map(|_| Rational::from_ratio(weight() + weight(), weight() + weight() + weight()))
            .collect();
        bench.iter(|| black_box(&terms).iter().sum::<Rational>())
    });
    g.finish();
}

criterion_group!(benches, biguint_ops, rational_ops);
criterion_main!(benches);
