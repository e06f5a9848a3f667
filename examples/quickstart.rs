//! Quickstart: Hartree–Fock on water, serial vs work stealing.
//!
//! Demonstrates the core loop of the study in ~30 lines: the same SCF
//! calculation runs under two execution models and produces the same
//! energy, while the execution reports expose how differently the
//! runtime behaved.
//!
//! Run with: `cargo run --release --example quickstart`

use emx_core::prelude::*;
use emx_obs::render_timeline;

fn main() {
    let molecule = Molecule::water();
    let bm = BasisedMolecule::assign(&molecule, BasisSet::SixThirtyOneG);
    println!(
        "water / 6-31G: {} atoms, {} shells, {} basis functions, {} electrons\n",
        molecule.natoms(),
        bm.nshells(),
        bm.nbf,
        bm.nelectrons()
    );

    let cfg = ScfConfig::default();

    // Serial baseline.
    let serial = Executor::new(1, PolicyKind::Serial);
    let (r_serial, _) = rhf_parallel(&bm, &cfg, &serial, usize::MAX);
    println!(
        "serial:        E = {:.8} Ha in {} iterations (converged: {})",
        r_serial.energy, r_serial.iterations, r_serial.converged
    );

    // Work stealing over 4 workers with chunked tasks.
    let stealing = Executor::new(4, PolicyKind::WorkStealing(StealConfig::default()));
    let (r_ws, reports) = rhf_parallel(&bm, &cfg, &stealing, 8);
    println!(
        "work stealing: E = {:.8} Ha in {} iterations (converged: {})",
        r_ws.energy, r_ws.iterations, r_ws.converged
    );
    assert!(
        (r_serial.energy - r_ws.energy).abs() < 1e-8,
        "models must agree"
    );

    let last = reports.last().expect("at least one iteration");
    println!(
        "\nlast Fock build: {} tasks on {} workers, utilization {:.1}%, {} steals",
        last.tasks,
        last.workers,
        100.0 * last.utilization(),
        last.total_steals()
    );

    // One profiled build to visualize where the time goes: its ring
    // events, drawn as one strip per worker.
    let pairs = ScreenedPairs::build(&bm, 1e-12);
    let pf = ParallelFock::new(&bm, &pairs, 1e-10, 8);
    let ws = PolicyKind::WorkStealing(StealConfig::default());
    let ring_capacity = 4 * pf.ntasks() + 1024;
    let (_, _, profile) = pf.execute_profiled(&r_ws.density, 4, ws, ring_capacity);
    println!("\nwork-stealing timeline (# = in task body):");
    let wall_ns = profile.attribution.wall_ns;
    print!("{}", render_timeline(&profile.events, wall_ns, 60, 4));

    println!("\nEnergies agree to machine precision across execution models.");
}
