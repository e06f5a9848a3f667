//! Chunk-sizing rules for counter-based self-scheduling.
//!
//! Every counter fetch — on the real shared counter or the simulated
//! one — claims a number of consecutive tasks decided by a [`ChunkRule`].
//! Keeping the formula here means the thread runtime and the simulator
//! can never disagree about what "guided" means.

/// How a counter fetch sizes its claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkRule {
    /// Fixed chunk of the given size (classic NXTVAL chunking).
    Fixed(usize),
    /// Tapering (guided) chunks: each fetch claims `remaining/(2·P)`
    /// tasks, floored at `min` — large chunks early to amortize the
    /// counter, small chunks late to balance the tail.
    Tapering {
        /// Smallest chunk a fetch may claim (≥ 1).
        min: usize,
    },
}

impl ChunkRule {
    /// Number of tasks the next fetch claims, given `remaining`
    /// unclaimed tasks served to `workers` workers. Never exceeds
    /// `remaining`, and is never zero while work remains — even for a
    /// rule that skipped [`ChunkRule::validate`] (`min = 0`,
    /// `workers > remaining`), a claim of zero with tasks outstanding
    /// would spin the counter loop forever without progress.
    pub fn claim(&self, remaining: usize, workers: usize) -> usize {
        if remaining == 0 {
            return 0;
        }
        match *self {
            ChunkRule::Fixed(c) => c.max(1),
            ChunkRule::Tapering { min } => (remaining / (2 * workers.max(1))).max(min.max(1)),
        }
        .min(remaining)
    }

    /// Panics unless the rule's parameters are usable (positive chunk
    /// and floor) — called once per run by both substrates.
    pub fn validate(&self) {
        match *self {
            ChunkRule::Fixed(c) => assert!(c > 0, "chunk must be positive"),
            ChunkRule::Tapering { min } => assert!(min > 0, "min_chunk must be positive"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_claims_are_capped_at_remaining() {
        let r = ChunkRule::Fixed(8);
        assert_eq!(r.claim(100, 4), 8);
        assert_eq!(r.claim(5, 4), 5);
        assert_eq!(r.claim(0, 4), 0);
    }

    #[test]
    fn guided_tapers_to_the_floor() {
        let r = ChunkRule::Tapering { min: 1 };
        // remaining/(2·4) early, the floor late.
        assert_eq!(r.claim(4096, 4), 512);
        assert_eq!(r.claim(16, 4), 2);
        assert_eq!(r.claim(3, 4), 1);
        assert_eq!(r.claim(0, 4), 0);
    }

    #[test]
    fn min_floor_is_respected_but_never_overshoots() {
        let r = ChunkRule::Tapering { min: 16 };
        assert_eq!(r.claim(40, 8), 16);
        assert_eq!(r.claim(7, 8), 7);
    }

    #[test]
    fn floor_boundary_is_exact() {
        // Divisor 2·P = 8, floor 4: the taper formula crosses the floor
        // exactly at remaining = 32.
        let r = ChunkRule::Tapering { min: 4 };
        assert_eq!(r.claim(40, 4), 5); // above the boundary: remaining/8
        assert_eq!(r.claim(32, 4), 4); // at the boundary: quotient == min
        assert_eq!(r.claim(31, 4), 4); // below: quotient 3 floored to min
        assert_eq!(r.claim(4, 4), 4); // floor capped at remaining…
        assert_eq!(r.claim(3, 4), 3); // …and below it, remaining wins
    }

    #[test]
    fn unvalidated_zero_floor_still_makes_progress() {
        // min = 0 skipped validate(): the claim must still be ≥ 1 while
        // work remains, or the counter loop would spin forever on
        // zero-size chunks.
        let r = ChunkRule::Tapering { min: 0 };
        assert_eq!(r.claim(3, 4), 1, "tail claim must not collapse to zero");
        assert_eq!(r.claim(1, 64), 1, "workers > tasks must not starve");
        assert_eq!(r.claim(0, 4), 0, "no work, no claim");
        let f = ChunkRule::Fixed(0);
        assert_eq!(f.claim(5, 4), 1, "unvalidated fixed-0 still advances");
        assert_eq!(f.claim(0, 4), 0);
    }

    #[test]
    fn zero_taper_divisor_does_not_divide_by_zero() {
        let w = ChunkRule::Tapering { min: 2 };
        assert_eq!(w.claim(16, 0), 8); // workers clamped to 1: 16/(2·1)
    }

    #[test]
    fn driven_chunks_partition_the_range() {
        // Drive each rule the way a shared counter does: chunks must be
        // non-zero, disjoint, in order, and cover 0..n exactly — no
        // zero-size and no duplicate chunks for any (n, P) shape,
        // including n == 0 and P > n.
        for rule in [
            ChunkRule::Fixed(3),
            ChunkRule::Tapering { min: 1 },
            ChunkRule::Tapering { min: 5 },
            ChunkRule::Tapering { min: 0 }, // unvalidated
        ] {
            for (n, p) in [(0usize, 4usize), (1, 8), (7, 16), (96, 4), (13, 13)] {
                let mut next = 0;
                let mut chunks = Vec::new();
                let mut fuel = 2 * n + 4; // any spin would exhaust this
                while next < n {
                    let c = rule.claim(n - next, p);
                    assert!(c > 0, "{rule:?} n={n} P={p}: zero-size chunk");
                    chunks.push((next, next + c));
                    next += c;
                    fuel -= 1;
                    assert!(fuel > 0, "{rule:?} n={n} P={p}: runaway loop");
                }
                assert_eq!(next, n, "{rule:?}: chunks must cover the range");
                for w in chunks.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "{rule:?}: gap or overlap");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk must be positive")]
    fn zero_fixed_chunk_is_rejected() {
        ChunkRule::Fixed(0).validate();
    }

    #[test]
    #[should_panic(expected = "min_chunk must be positive")]
    fn zero_min_chunk_is_rejected() {
        ChunkRule::Tapering { min: 0 }.validate();
    }
}
