//! Deterministic randomness for victim selection.
//!
//! Both substrates draw steal victims from splitmix64 streams. The raw
//! generator and the draw→victim mappings live here so the thread
//! runtime and the simulator reproduce each other's decision sequences
//! bit-for-bit; each substrate keeps its own seed-derivation convention
//! (per-worker streams on threads via [`worker_stream`], one shared
//! stream in the simulator).

/// Minimal splitmix64 PRNG (no `rand` dependency in the hot steal loop).
/// `new` takes the raw initial state — callers apply their own seed
/// derivation.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Generator starting from the given raw state.
    pub fn new(state: u64) -> SplitMix64 {
        SplitMix64 { state }
    }

    /// Next 64-bit draw. Named `next` on purpose — this is not an
    /// iterator, and callers at both substrates read as RNG draws.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 finalizer: the output step of [`SplitMix64::next`]
/// and of [`unit_hash`](crate::variability::unit_hash).
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The thread runtime's per-worker victim stream: worker `w` draws from
/// `0x57ea1 ^ w·φ64` (golden-ratio spacing keeps the streams
/// decorrelated).
pub fn worker_stream(worker: usize) -> SplitMix64 {
    SplitMix64::new(0x57ea1 ^ (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Maps a raw 64-bit draw to a uniformly random victim in `0..p`
/// excluding `thief` (the skip-self construction both substrates use).
/// Requires `p > 1`.
pub fn random_victim(draw: u64, thief: usize, p: usize) -> usize {
    debug_assert!(p > 1);
    let mut v = (draw as usize) % (p - 1);
    if v >= thief {
        v += 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn unit_draws_stay_in_range() {
        let mut g = SplitMix64::new(7);
        for _ in 0..1000 {
            let u = g.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn random_victim_never_targets_self_and_covers_peers() {
        let p = 5;
        for thief in 0..p {
            let mut seen = vec![false; p];
            for draw in 0..64u64 {
                let v = random_victim(draw, thief, p);
                assert_ne!(v, thief);
                assert!(v < p);
                seen[v] = true;
            }
            let peers = seen.iter().filter(|&&s| s).count();
            assert_eq!(peers, p - 1, "thief {thief} must reach every peer");
        }
    }

    #[test]
    fn worker_streams_differ_per_worker() {
        let a = worker_stream(0).next();
        let b = worker_stream(1).next();
        assert_ne!(a, b);
    }
}
