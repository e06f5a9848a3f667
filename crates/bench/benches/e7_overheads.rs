//! E7 — runtime-overhead microbenchmarks (real code paths).
//!
//! Pins the cost of the mechanisms the execution models are built from:
//! per-task dispatch of each scheduler, the ERI compute kernel itself
//! at different shell classes, and one serial Fock build.

use criterion::{criterion_group, criterion_main, Criterion};
use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::eri::eri_quartet;
use emx_chem::molecule::Molecule;
use emx_chem::shellpair::ShellPair;
use emx_runtime::prelude::*;
use std::hint::black_box;
use std::time::Duration;

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_dispatch_per_task");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let n = 10_000;
    for (name, model) in [
        ("static-block", PolicyKind::StaticBlock),
        ("counter-c1", PolicyKind::DynamicCounter { chunk: 1 }),
        ("counter-c64", PolicyKind::DynamicCounter { chunk: 64 }),
        (
            "work-stealing",
            PolicyKind::WorkStealing(StealConfig::default()),
        ),
    ] {
        let ex = Executor::new(2, model);
        group.bench_function(name, |b| {
            b.iter(|| {
                let (_, r) = ex.run(n, |_| (), |_, _| {});
                black_box(r.total_tasks_run())
            });
        });
    }
    group.finish();
}

fn bench_eri(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_eri_kernel");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::SixThirtyOneG);
    // Shell 0: deep-contracted s; shells 2: p — bench contrasting
    // quartet classes (the cost-skew source).
    let pair_ss = ShellPair::build(0, &bm.shells[0], 0, &bm.shells[0], 0);
    let pair_pp = ShellPair::build(2, &bm.shells[2], 2, &bm.shells[2], 0);
    group.bench_function("ssss-deep", |b| {
        b.iter(|| black_box(eri_quartet(&pair_ss, &pair_ss, &bm.shells)[0]))
    });
    group.bench_function("pppp", |b| {
        b.iter(|| black_box(eri_quartet(&pair_pp, &pair_pp, &bm.shells)[0]))
    });
    group.finish();
}

fn bench_fock_build(c: &mut Criterion) {
    use emx_chem::prelude::*;
    use emx_linalg::Matrix;
    let mut group = c.benchmark_group("e7_fock_build");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
    let pairs = ScreenedPairs::build(&bm, 1e-12);
    let fb = FockBuilder::new(&bm, &pairs, 1e-10);
    let tasks = fb.tasks(usize::MAX);
    let mut d = Matrix::from_fn(bm.nbf, bm.nbf, |i, j| {
        0.3 / (1.0 + (i as f64 - j as f64).abs())
    });
    d.symmetrize();
    group.bench_function("rhf-fock-build", |b| {
        b.iter(|| {
            let mut g = Matrix::zeros(bm.nbf, bm.nbf);
            let mut scratch = fb.scratch();
            for t in &tasks {
                fb.execute(t, &d, &mut g, &mut scratch);
            }
            black_box(g.frobenius_norm())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dispatch, bench_eri, bench_fock_build);
criterion_main!(benches);
