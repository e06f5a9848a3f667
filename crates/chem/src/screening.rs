//! Schwarz screening and the screened shell-pair list.
//!
//! The Cauchy–Schwarz bound `|(ab|cd)| ≤ √(ab|ab) · √(cd|cd)` lets the
//! Fock build skip quartets that cannot contribute above a threshold.
//! Screening is what makes the task-cost distribution *data dependent*:
//! for spatially extended molecules most far-apart quartets vanish, so
//! the surviving work per bra pair varies by orders of magnitude — the
//! core load-balancing challenge of the study.

use crate::basis::BasisedMolecule;
use crate::eri::{eri_quartet_schwarz_max, EriScratch};
use crate::shellpair::{PairBatchSet, ShellPair};

/// A screened list of significant shell pairs with Schwarz factors.
#[derive(Debug, Clone)]
pub struct ScreenedPairs {
    /// Significant shell pairs `(a, b)` with `a ≥ b`, with cached
    /// primitive-pair data.
    pub pairs: Vec<ShellPair>,
    /// Schwarz factor `√max|(ab|ab)|` for each entry of `pairs`.
    pub q: Vec<f64>,
    /// Threshold used for pair formation.
    pub pair_threshold: f64,
    /// The batched SoA layout of `pairs` (per-class flat E-product
    /// tables), with each member's Schwarz diagonal cached on it. The
    /// batched quartet kernel reads only this.
    pub batch: PairBatchSet,
}

impl ScreenedPairs {
    /// Builds all unique shell pairs and their Schwarz factors, dropping
    /// pairs whose factor is below `pair_threshold` (they cannot pass
    /// any quartet test either, since `Q ≤ max Q` bounds apply). The
    /// surviving list is also laid out as a [`PairBatchSet`] here, so
    /// every Schwarz diagonal is computed exactly once per pair for the
    /// lifetime of the molecule — consumers read `q`/`batch` instead of
    /// re-deriving bounds through the quartet kernel.
    pub fn build(bm: &BasisedMolecule, pair_threshold: f64) -> ScreenedPairs {
        let shells = &bm.shells;
        let mut pairs = Vec::new();
        let mut q = Vec::new();
        let mut scratch = EriScratch::new();
        for a in 0..shells.len() {
            for b in 0..=a {
                let sp = ShellPair::build(a, &shells[a], b, &shells[b], 0);
                if sp.prims.is_empty() {
                    continue;
                }
                // max |(ab|ab)| over components bounds every |(ab|cd)|;
                // the diagonal-only kernel never forms the full ncart⁴
                // quartet block.
                let maxv = eri_quartet_schwarz_max(&mut scratch, &sp, shells);
                let qv = maxv.sqrt();
                if qv >= pair_threshold {
                    pairs.push(sp);
                    q.push(qv);
                }
            }
        }
        let mut batch = PairBatchSet::build(shells, &pairs);
        batch.set_schwarz(&q);
        ScreenedPairs {
            pairs,
            q,
            pair_threshold,
            batch,
        }
    }

    /// Number of surviving pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pair survived (degenerate inputs only).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether the quartet `(pairs[i] | pairs[j])` survives the Schwarz
    /// test at threshold `tau`.
    #[inline]
    pub fn survives(&self, i: usize, j: usize, tau: f64) -> bool {
        self.q[i] * self.q[j] >= tau
    }

    /// Counts surviving quartets `(i, j)` with `j ≤ i` at threshold
    /// `tau` — the effective problem size after screening.
    pub fn surviving_quartets(&self, tau: f64) -> usize {
        let mut n = 0;
        for i in 0..self.len() {
            for j in 0..=i {
                if self.survives(i, j, tau) {
                    n += 1;
                }
            }
        }
        n
    }

    /// Screening effectiveness at threshold `tau`: candidate vs.
    /// surviving quartet counts, ready for metric export.
    pub fn stats(&self, tau: f64) -> ScreeningStats {
        let candidates = self.len() * (self.len() + 1) / 2;
        ScreeningStats {
            tau,
            candidate_quartets: candidates,
            surviving_quartets: self.surviving_quartets(tau),
        }
    }
}

/// Summary of how hard Schwarz screening bites at a given threshold —
/// the quantity behind the paper's "data-dependent task costs" point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreeningStats {
    /// Threshold the quartet test used.
    pub tau: f64,
    /// Quartets before the Schwarz test (all `(i, j)`, `j ≤ i`).
    pub candidate_quartets: usize,
    /// Quartets passing the test.
    pub surviving_quartets: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{BasisSet, BasisedMolecule};
    use crate::eri::eri_quartet;
    use crate::molecule::Molecule;

    #[test]
    fn all_pairs_survive_for_compact_molecule() {
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
        let sp = ScreenedPairs::build(&bm, 1e-12);
        let n = bm.nshells();
        assert_eq!(sp.len(), n * (n + 1) / 2);
    }

    #[test]
    fn schwarz_bound_holds_for_sampled_quartets() {
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
        let sp = ScreenedPairs::build(&bm, 0.0);
        for i in 0..sp.len() {
            for j in 0..=i {
                let block = eri_quartet(&sp.pairs[i], &sp.pairs[j], &bm.shells);
                let maxv = block.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let bound = sp.q[i] * sp.q[j];
                assert!(
                    maxv <= bound * (1.0 + 1e-8) + 1e-14,
                    "Schwarz violated for ({i},{j}): {maxv} > {bound}"
                );
            }
        }
    }

    #[test]
    fn screening_reduces_quartets_for_extended_molecule() {
        let bm = BasisedMolecule::assign(&Molecule::alkane(6), BasisSet::Sto3g);
        let sp = ScreenedPairs::build(&bm, 1e-10);
        let all = sp.len() * (sp.len() + 1) / 2;
        let surviving = sp.surviving_quartets(1e-8);
        assert!(
            surviving < all,
            "screening should remove quartets: {surviving} of {all}"
        );
    }

    #[test]
    fn tighter_threshold_keeps_more() {
        let bm = BasisedMolecule::assign(&Molecule::alkane(4), BasisSet::Sto3g);
        let sp = ScreenedPairs::build(&bm, 1e-12);
        assert!(sp.surviving_quartets(1e-12) >= sp.surviving_quartets(1e-6));
    }

    #[test]
    fn stats_match_direct_counts() {
        let bm = BasisedMolecule::assign(&Molecule::alkane(4), BasisSet::Sto3g);
        let sp = ScreenedPairs::build(&bm, 1e-12);
        let st = sp.stats(1e-8);
        assert_eq!(st.candidate_quartets, sp.len() * (sp.len() + 1) / 2);
        assert_eq!(st.surviving_quartets, sp.surviving_quartets(1e-8));
        assert!(st.surviving_quartets > 0 && st.surviving_quartets <= st.candidate_quartets);
        // Looser threshold → fewer survivors.
        assert!(sp.stats(1e-3).surviving_quartets <= st.surviving_quartets);
    }

    #[test]
    fn q_factors_positive() {
        let bm = BasisedMolecule::assign(&Molecule::water(), BasisSet::Sto3g);
        let sp = ScreenedPairs::build(&bm, 1e-12);
        assert!(sp.q.iter().all(|&v| v > 0.0));
    }
}
