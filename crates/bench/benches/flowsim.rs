//! Criterion benches: the flow-level solvers (Garg–Könemann epsilon
//! sensitivity — the DESIGN.md accuracy/speed ablation — and waterfilling).

use criterion::{criterion_group, criterion_main, Criterion};
use pnet_flowsim::{commodity, mcf, throughput};
use pnet_topology::{assemble_homogeneous, FatTree, Jellyfish, LinkProfile};
use pnet_workloads::tm;
use std::hint::black_box;

fn bench_gk_eps(c: &mut Criterion) {
    let net = assemble_homogeneous(
        &Jellyfish::new(16, 6, 4, 1),
        2,
        &LinkProfile::paper_default(),
    );
    let commodities = commodity::permutation(&tm::random_permutation(64, 7));
    let mut group = c.benchmark_group("gk permutation 64 hosts 2 planes");
    for eps in [0.1f64, 0.2] {
        group.bench_function(format!("eps={eps}"), |b| {
            b.iter(|| {
                let opts = mcf::McfOptions::default();
                let sol = mcf::try_solve_with_options(
                    &net,
                    &commodities,
                    &mcf::PathMode::AnyPath,
                    eps,
                    opts,
                );
                black_box(sol.expect("valid instance must solve").lambda)
            })
        });
    }
    group.finish();
}

fn bench_gk_explicit_paths(c: &mut Criterion) {
    let net = assemble_homogeneous(&FatTree::three_tier(8), 2, &LinkProfile::paper_default());
    let commodities = commodity::permutation(&tm::random_permutation(128, 3));
    c.bench_function("ksp-16 multipath throughput, k=8 fat tree x2", |b| {
        b.iter(|| {
            let sol = throughput::ksp_multipath_throughput(&net, &commodities, 16, 0.15);
            black_box(sol.expect("valid instance must solve").0)
        })
    });
}

fn bench_waterfilling(c: &mut Criterion) {
    let net = assemble_homogeneous(&FatTree::three_tier(8), 4, &LinkProfile::paper_default());
    let commodities = commodity::all_to_all(128);
    c.bench_function("ECMP max-min waterfilling, all-to-all 128 hosts", |b| {
        b.iter(|| black_box(throughput::ecmp_throughput(&net, &commodities)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gk_eps, bench_gk_explicit_paths, bench_waterfilling
}
criterion_main!(benches);
