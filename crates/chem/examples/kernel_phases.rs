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
//! the numbers subtract to scatter, contraction and front end. Then the
//! kernel alone once per (bra shape, ket shape) pair, each replay
//! restricted to the quartets of that pair. The replays run round by
//! round, one of each per round, so a slow spell of the host lands on all
//! of them alike; the minimum and the median over the rounds are
//! printed. Timings are host-dependent; the counts under them are exact,
//! and the run asserts that they add up to the operation count the
//! benchmark prints as `chem.prim_quartets_per_build`.
//!
//! Last, an FNV-1a hash over every bit of `G` at the fixed density: two
//! commits that print the same hash build the same `G` to the last bit.

use emx_chem::basis::{BasisSet, BasisedMolecule};
use emx_chem::eri::EriScratch;
use emx_chem::eribatch::{eri_bra_block_into, front_end};
use emx_chem::fock::FockBuilder;
use emx_chem::md::R_SIMPLEX_LEN;
use emx_chem::molecule::Molecule;
use emx_chem::scf::ScfConfig;
use emx_chem::screening::ScreenedPairs;
use emx_chem::shellpair::ShellPairBatch;
use emx_linalg::Matrix;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Surviving kets per bra, as `execute` stages them for one-task-per-bra
/// tasks.
type Lists = Vec<(usize, Vec<u32>)>;

/// Pair-class shapes: `sp` is either order; any class with a d shell
/// is `d`.
const SHAPES: [&str; 4] = ["ss", "sp", "pp", "d"];

/// A pair class's index in [`SHAPES`].
fn shape(c: &ShellPairBatch) -> usize {
    match (c.nh, c.ncomp) {
        (1, 1) => 0,
        (4, 3) => 1,
        (10, 9) => 2,
        _ => 3,
    }
}

/// Primitive quartets the kernel evaluates for `lists`.
fn prim_quartets(pairs: &ScreenedPairs, lists: &Lists) -> u64 {
    lists
        .iter()
        .flat_map(|(bra, kets)| kets.iter().map(move |&ket| (*bra, ket as usize)))
        .map(|(bra, ket)| (pairs.pairs[bra].prims.len() * pairs.pairs[ket].prims.len()) as u64)
        .sum()
}

/// The batched kernel over every (bra, kets) of `lists`.
fn kernel_only(scratch: &mut EriScratch, pairs: &ScreenedPairs, lists: &Lists) {
    for (bra, kets) in lists {
        eri_bra_block_into(scratch, &pairs.batch, *bra, kets);
        black_box(scratch.ket_block(0));
    }
}

/// The kernel's front end for every primitive quartet of the build, in
/// the kernel's order.
fn front_end_only(pairs: &ScreenedPairs, lists: &Lists) -> f64 {
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

/// Seconds of one call of `f`.
fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Minimum and median of `samples`.
fn min_median(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (samples[0], samples[samples.len() / 2])
}

/// FNV-1a (64-bit) over the bit patterns of every entry of `g`, row by
/// row.
fn fnv1a(g: &Matrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in g.as_slice() {
        for byte in x.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
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
    let lists: Lists = (0..pairs.len())
        .map(|bra| {
            let kets = (0..=bra).filter(|&ket| pairs.survives(bra, ket, tau));
            (bra, kets.map(|ket| ket as u32).collect::<Vec<_>>())
        })
        .filter(|(_, kets)| !kets.is_empty())
        .collect();
    // The same lists split by (bra shape, ket shape).
    let mut by_shape: BTreeMap<(usize, usize), Lists> = BTreeMap::new();
    for (bra, kets) in &lists {
        let sb = shape(pairs.batch.class_of(*bra).0);
        for &ket in kets {
            let sk = shape(pairs.batch.class_of(ket as usize).0);
            let sub = by_shape.entry((sb, sk)).or_default();
            match sub.last_mut() {
                Some((b, ks)) if b == bra => ks.push(ket),
                _ => sub.push((*bra, vec![ket])),
            }
        }
    }

    let mut scratch = fb.scratch();
    kernel_only(&mut scratch, &pairs, &lists);
    let counts = *scratch.counts();
    let total = counts.prim_quartets();
    assert_eq!(
        total,
        prim_quartets(&pairs, &lists),
        "{name}: per-l_tot counters"
    );
    assert_eq!(
        counts.boys.iter().sum::<u64>(),
        total,
        "{name}: Boys-regime counters"
    );
    let shape_counts: Vec<u64> = by_shape
        .values()
        .map(|sub| prim_quartets(&pairs, sub))
        .collect();
    assert_eq!(
        shape_counts.iter().sum::<u64>(),
        total,
        "{name}: per-shape counts"
    );

    // Interleaved rounds: full, kernel, front end, then every shape pair.
    let g = fb.build_serial(&d);
    let (mut full, mut kernel, mut front) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_shape = vec![Vec::new(); by_shape.len()];
    let start = Instant::now();
    while full.len() < 5 || start.elapsed().as_secs_f64() < 1.5 {
        full.push(secs(|| {
            black_box(fb.build_serial(black_box(&d)));
        }));
        kernel.push(secs(|| kernel_only(&mut scratch, &pairs, &lists)));
        front.push(secs(|| {
            black_box(front_end_only(&pairs, black_box(&lists)));
        }));
        for (sub, samples) in by_shape.values().zip(&mut per_shape) {
            samples.push(secs(|| kernel_only(&mut scratch, &pairs, sub)));
        }
    }
    let cols = |samples: &mut [f64], n: u64| {
        let (min, median) = min_median(samples);
        let ns = |s: f64| s * 1e9 / n as f64;
        format!("{:>6.1} {:>6.1}", ns(min), ns(median))
    };
    let percent = |part: &[u64]| -> Vec<String> {
        part.iter()
            .map(|&n| format!("{:.1}", 100.0 * n as f64 / total as f64))
            .collect()
    };
    println!(
        "{name}: {total} primitive quartets per build, {} rounds",
        full.len()
    );
    println!("  ns per primitive quartet     min median");
    println!("  {:<24} {}", "full build_serial", cols(&mut full, total));
    println!(
        "  {:<24} {}",
        "kernel without scatter",
        cols(&mut kernel, total)
    );
    println!("  {:<24} {}", "front end alone", cols(&mut front, total));
    println!("  kernel by (bra|ket) shape    min median  share (%)");
    for (((sb, sk), _), (samples, &n)) in
        by_shape.iter().zip(per_shape.iter_mut().zip(&shape_counts))
    {
        let label = format!("({}|{})", SHAPES[*sb], SHAPES[*sk]);
        let share = 100.0 * n as f64 / total as f64;
        println!("  {label:<24} {}  {share:>5.1}", cols(samples, n));
    }
    println!("  l_tot 0..=8 (%): {}", percent(&counts.by_l_tot).join(" "));
    println!(
        "  Boys T<1e-13 / tabulated / T>=36 (%): {}",
        percent(&counts.boys).join(" / ")
    );
    println!("  G fnv1a64: {:016x}", fnv1a(&g));
}

fn main() {
    probe("benzene/STO-3G", &Molecule::benzene(), BasisSet::Sto3g);
    let w3 = Molecule::water_cluster(3, 42);
    probe("(H2O)3/6-31G", &w3, BasisSet::SixThirtyOneG);
    probe("H2O/6-31G", &Molecule::water(), BasisSet::SixThirtyOneG);
}
