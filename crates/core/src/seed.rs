//! Deterministic seed derivation — the single audited implementation.
//!
//! Several subsystems need many *statistically independent* RNG streams
//! fanned out from one 64-bit root: `nd-netsim` derives one stream per
//! node from the run seed, and the one Monte-Carlo trial runner
//! (`nd_analysis::Trials`) derives one channel seed per trial from its
//! campaign's root: a sweep job's content-hash seed, or the configured
//! seed of a pair or group campaign. This module is the only
//! implementation, and its outputs feed content-addressed caches — so the
//! functions here are **frozen**: changing any constant silently
//! invalidates reproducibility guarantees and must be accompanied by an
//! engine ABI bump (see the cache ABI convention in the README).
//!
//! The finalizer is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014; the
//! `splitmix64` output function as used by Vigna's xoshiro reference
//! implementations): an invertible avalanche mix, so distinct inputs give
//! distinct outputs and near inputs (`seed`, `seed+1`, …) land far apart.

/// The SplitMix64 finalizer: one full avalanche round.
///
/// Invertible on `u64`, so it is collision-free; every input bit affects
/// every output bit. Stable forever (cache-key material).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derive the seed of stream `index` rooted at `root`.
///
/// The index is first spread across the word by a (odd, hence invertible)
/// multiplicative hash, then the combination is finalized with
/// [`splitmix64`] — so streams 0, 1, 2, … are decorrelated even though the
/// roots and indices are tiny integers. For a fixed `root` the map
/// `index → seed` is injective.
///
/// Used for per-node streams (`nd-netsim`, index = node id) and per-trial
/// channel seeds (`nd_analysis::Trials`, index = trial number).
pub fn stream_seed(root: u64, index: u64) -> u64 {
    splitmix64(root ^ index.wrapping_mul(0xa076_1d64_78bd_642f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_vector() {
        // the first output of the published SplitMix64 sequence seeded
        // with 0 — the standard test vector; pins the constants forever
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1234567), 0x599e_d017_fb08_fc85);
    }

    #[test]
    fn splitmix64_is_injective_on_a_sample() {
        let mut seen = std::collections::HashSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(splitmix64(x)));
        }
    }

    #[test]
    fn stream_seeds_are_distinct_and_decorrelated() {
        let mut seen = std::collections::HashSet::new();
        for root in [0u64, 1, 42, u64::MAX] {
            for index in 0..256u64 {
                assert!(seen.insert(stream_seed(root, index)), "collision");
            }
        }
        // neighbouring indices land far apart: no shared high byte runs
        let a = stream_seed(7, 0);
        let b = stream_seed(7, 1);
        assert_ne!(a >> 32, b >> 32);
    }

    #[test]
    fn stream_seed_is_frozen() {
        // these exact values feed content-addressed caches; a change here
        // is an engine ABI change, not a refactor
        assert_eq!(stream_seed(0, 0), splitmix64(0));
        assert_eq!(
            stream_seed(21, 3),
            splitmix64(21 ^ 3u64.wrapping_mul(0xa076_1d64_78bd_642f))
        );
    }
}
