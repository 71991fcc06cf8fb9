//! A small, fast, deterministic pseudo-random number generator.
//!
//! The build environment is offline, so the workspace cannot depend on the
//! `rand` crate; the trace generators only need a seedable uniform source,
//! which this xoshiro256++ implementation (public-domain algorithm by
//! Blackman & Vigna) provides. Determinism across platforms and runs is a
//! hard requirement — simulation results must be reproducible and the
//! parallel runner must produce bitwise-identical metrics to a serial run —
//! so the generator is fully specified here rather than delegated to a
//! dependency that could change behaviour between versions.

use std::ops::{Range, RangeInclusive};

/// A seedable xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    state: [u64; 4],
}

impl SmallRng {
    /// Creates a generator from a 64-bit seed, expanding it with SplitMix64
    /// (the initialisation recommended by the xoshiro authors).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self { state: [next(), next(), next(), next()] }
    }

    /// Returns the next 64 uniformly distributed bits.
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        self.state = [s0, s1, s2, s3.rotate_left(45)];
        result
    }

    /// Returns a uniform float in `[0, 1)` with 53 bits of precision.
    #[must_use]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[must_use]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Returns a uniform value from a range, e.g. `rng.gen_range(0..n)` or
    /// `rng.gen_range(0..=max)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[must_use]
    pub fn gen_range<T, R: RangeSample<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Debiased uniform sample in `[0, bound)` via Lemire-style rejection.
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "cannot sample from an empty range");
        if bound.is_power_of_two() {
            // The rejection zone is empty and the modulo is a mask: one
            // draw, the same value the general path returns.
            return self.next_u64() & (bound - 1);
        }
        loop {
            let v = self.next_u64();
            // The rejection zone `[0, 2^64 mod bound)` keeps the modulo
            // unbiased. It lies below `bound`, so only a draw below `bound`
            // needs it computed: most draws cost one division, not two.
            if v >= bound || v >= bound.wrapping_neg() % bound {
                return v % bound;
            }
        }
    }
}

/// Ranges [`SmallRng::gen_range`] can sample from.
pub trait RangeSample<T> {
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut SmallRng) -> T;
}

macro_rules! impl_range_sample {
    ($($ty:ty),+) => {$(
        impl RangeSample<$ty> for Range<$ty> {
            fn sample(self, rng: &mut SmallRng) -> $ty {
                assert!(self.start < self.end, "cannot sample from an empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.bounded_u64(span) as $ty
            }
        }
        impl RangeSample<$ty> for RangeInclusive<$ty> {
            fn sample(self, rng: &mut SmallRng) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from an empty range");
                let span = (end as u64) - (start as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                start + rng.bounded_u64(span + 1) as $ty
            }
        }
    )+};
}

impl_range_sample!(u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_the_same_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(1);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let fraction = hits as f64 / 100_000.0;
        assert!((fraction - 0.3).abs() < 0.01, "observed {fraction}");
        let mut rng = SmallRng::seed_from_u64(2);
        assert!((0..1000).all(|_| !rng.gen_bool(0.0)));
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.gen_range(0usize..10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|s| *s), "all buckets should be hit");
        for _ in 0..1_000 {
            let v = rng.gen_range(5u64..=7);
            assert!((5..=7).contains(&v));
        }
        for _ in 0..1_000 {
            let v = rng.gen_range(100u32..101);
            assert_eq!(v, 100);
        }
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn power_of_two_bounds_match_the_plain_modulo() {
        for bound in [1, 2, 64, 1 << 17, 1 << 26, 1 << 63] {
            let mut masked = SmallRng::seed_from_u64(bound);
            let mut reference = masked.clone();
            for _ in 0..10_000 {
                assert_eq!(masked.bounded_u64(bound), reference.next_u64() % bound, "{bound}");
            }
            assert_eq!(masked, reference, "bound {bound} must draw exactly once per sample");
        }
    }

    /// The rejection loop with its zone computed before every draw, as the
    /// generator first shipped: the reference for the lazily computed zone.
    fn eager_zone_bounded(rng: &mut SmallRng, bound: u64) -> u64 {
        let zone = bound.wrapping_neg() % bound;
        loop {
            let v = rng.next_u64();
            if v >= zone {
                return v % bound;
            }
        }
    }

    /// Computing the rejection zone only for draws below the bound returns
    /// the same values from the same number of draws, over small, large
    /// and random bounds, including ones that reject about half the draws.
    #[test]
    fn lazy_rejection_zone_matches_the_eager_one() {
        let mut bounds = vec![3, 5, 6, 7, 10, 100, 1_000, 12_345, (1 << 32) + 1, u64::MAX];
        bounds.extend([(1 << 63) + 1, (1 << 63) + (1 << 62), u64::MAX / 3 * 2, u64::MAX - 1]);
        let mut pick = SmallRng::seed_from_u64(99);
        bounds.extend((0..200).map(|i| pick.next_u64() >> (i % 64)).filter(|&b| b > 0));
        for (seed, &bound) in bounds.iter().enumerate() {
            let mut lazy = SmallRng::seed_from_u64(seed as u64);
            let mut eager = lazy.clone();
            for _ in 0..2_000 {
                assert_eq!(
                    lazy.bounded_u64(bound),
                    eager_zone_bounded(&mut eager, bound),
                    "{bound}"
                );
            }
            assert_eq!(lazy, eager, "bound {bound} must draw as often as the eager loop");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(5);
        let _ = rng.gen_range(3u64..3);
    }
}
