//! Where a Fock build's nanoseconds go, per primitive quartet, on the
//! benchmark's three SCF molecules:
//!
//! ```text
//! cargo run --release -p emx-chem --example kernel_phases
//! ```
//!
//! Three nested replays of one serial build at a fixed density — the
//! full build (kernel + scatter into G), the batched kernel alone, and
//! the kernel's front end alone (prefactor + Boys + `R` on the simplex,
//! the same calls in the same order with the contraction removed) — so
//! the numbers subtract to scatter, contraction and front end. Timings
//! are medians and host-dependent; the counts under them are exact, and
//! the run asserts that they add up to the operation count the
//! benchmark prints as `chem.prim_quartets_per_build`.

use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::eribatch::{eri_bra_block_into, front_end};
use emx_chem::fock::FockBuilder;
use emx_chem::md::R_SIMPLEX_LEN;
use emx_chem::molecule::Molecule;
use emx_chem::scf::ScfConfig;
use emx_chem::screening::ScreenedPairs;
use emx_linalg::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of `f` after one warm-up call, repeated for ~0.3 s and
/// at least three times.
fn median_secs(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < 0.3 {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The kernel's front end for every primitive quartet of the build, in
/// the kernel's order.
fn front_end_only(pairs: &ScreenedPairs, lists: &[(usize, Vec<u32>)]) -> f64 {
    let mut r = [0.0; R_SIMPLEX_LEN];
    let mut sum = 0.0;
    for (bra, kets) in lists {
        let (bc, bslot) = pairs.batch.class_of(*bra);
        for &k in kets {
            let (kc, kslot) = pairs.batch.class_of(k as usize);
            for bp in bc.prim_off[bslot] as usize..bc.prim_off[bslot + 1] as usize {
                for kp in kc.prim_off[kslot] as usize..kc.prim_off[kslot + 1] as usize {
                    front_end(bc, bp, kc, kp, &mut r);
                    sum += r[0];
                }
            }
        }
    }
    sum
}

fn probe(name: &str, mol: &Molecule, basis: BasisSet) {
    let bm = BasisedMolecule::assign(mol, basis);
    // Thresholds as the SCF drivers set them.
    let tau = ScfConfig::default().tau;
    let pairs = ScreenedPairs::build(&bm, tau * 1e-2);
    let fb = FockBuilder::new(&bm, &pairs, tau);
    let mut d = Matrix::from_fn(bm.nbf, bm.nbf, |i, j| {
        0.2 / (1.0 + (i as f64 - j as f64).abs())
    });
    d.symmetrize();
    // The surviving kets of every one-task-per-bra task, as `execute`
    // stages them.
    let lists: Vec<(usize, Vec<u32>)> = (0..pairs.len())
        .map(|bra| {
            let kets = (0..=bra).filter(|&ket| pairs.survives(bra, ket, tau));
            (bra, kets.map(|ket| ket as u32).collect::<Vec<_>>())
        })
        .filter(|(_, kets)| !kets.is_empty())
        .collect();

    let mut scratch = fb.scratch();
    for (bra, kets) in &lists {
        eri_bra_block_into(&mut scratch, &pairs.batch, *bra, kets);
    }
    let counts = *scratch.counts();
    // The benchmark's `chem.prim_quartets_per_build`, computed its way.
    let expected: usize = lists
        .iter()
        .flat_map(|(bra, kets)| kets.iter().map(move |&ket| (*bra, ket as usize)))
        .map(|(bra, ket)| pairs.pairs[bra].prims.len() * pairs.pairs[ket].prims.len())
        .sum();
    let total = counts.prim_quartets();
    assert_eq!(total, expected as u64, "{name}: per-l_tot counters");
    assert_eq!(
        counts.boys.iter().sum::<u64>(),
        total,
        "{name}: Boys-regime counters"
    );

    let ns = |secs: f64| secs * 1e9 / total as f64;
    let full = ns(median_secs(|| {
        black_box(fb.build_serial(black_box(&d)));
    }));
    let kernel = ns(median_secs(|| {
        for (bra, kets) in &lists {
            eri_bra_block_into(&mut scratch, &pairs.batch, *bra, kets);
            black_box(scratch.ket_block(0));
        }
    }));
    let front = ns(median_secs(|| {
        black_box(front_end_only(&pairs, black_box(&lists)));
    }));
    let percent = |part: &[u64]| -> Vec<String> {
        part.iter()
            .map(|&n| format!("{:.1}", 100.0 * n as f64 / total as f64))
            .collect()
    };
    println!("{name}: {total} primitive quartets per build");
    println!(
        "  ns per primitive quartet: full build_serial {full:.1} | kernel without scatter \
         {kernel:.1} | front end alone {front:.1}"
    );
    println!("  l_tot 0..=8 (%): {}", percent(&counts.by_l_tot).join(" "));
    println!(
        "  Boys T<1e-13 / tabulated / T>=36 (%): {}",
        percent(&counts.boys).join(" / ")
    );
}

fn main() {
    probe("benzene/STO-3G", &Molecule::benzene(), BasisSet::Sto3g);
    let w3 = Molecule::water_cluster(3, 42);
    probe("(H2O)3/6-31G", &w3, BasisSet::SixThirtyOneG);
    probe("H2O/6-31G", &Molecule::water(), BasisSet::SixThirtyOneG);
}
