//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no crates.io access, so this crate
//! reimplements exactly the API surface the workspace uses —
//! `StdRng::seed_from_u64`, `Rng::{gen_range, gen_bool}` over integer,
//! inclusive-integer and `f64` ranges, and `SliceRandom::choose` — over
//! a deterministic xoshiro256\*\* generator seeded by SplitMix64 (the
//! construction the xoshiro authors recommend).
//!
//! The stream of values differs from the real `StdRng` (ChaCha12), which
//! is fine: every consumer in this workspace treats the RNG as an
//! arbitrary-but-deterministic tie-breaker or workload jitter source, and
//! nothing pins concrete draws. Determinism guarantees (same seed → same
//! sequence, forever, on every platform) are what matter, and this
//! implementation is platform-independent pure integer arithmetic.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Core uniform-bit generation, the base of [`Rng`].
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable construction (only the `seed_from_u64` entry point is used in
/// this workspace).
pub trait SeedableRng: Sized {
    /// Derive a full generator state from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types [`Rng::gen_range`] can sample uniformly. Mirrors real rand's
/// trait structure (one generic `SampleRange` impl per range kind over a
/// per-type `SampleUniform`) so that integer-literal ranges infer their
/// element type from the call site, exactly like the real crate.
pub trait SampleUniform: Sized {
    /// Uniform draw from `[lo, hi)` (`inclusive = false`) or `[lo, hi]`
    /// (`inclusive = true`). Panics on empty ranges, matching real rand.
    fn sample_range<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self;
}

/// `x % span`. A span that fits in a `u64` — every range but a full
/// 64-bit one — takes a 64-bit remainder, which is cheaper than the
/// 128-bit one and gives the same value.
#[inline]
fn reduce(x: u64, span: u128) -> u128 {
    match u64::try_from(span) {
        Ok(span) => (x % span) as u128,
        Err(_) => x as u128 % span,
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let empty = if inclusive { lo > hi } else { lo >= hi };
                assert!(!empty, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + inclusive as u128;
                let v = reduce(rng.next_u64(), span);
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        _inclusive: bool,
        rng: &mut R,
    ) -> Self {
        assert!(lo < hi, "cannot sample empty range");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one uniform value from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(*self.start(), *self.end(), true, rng)
    }
}

/// The user-facing sampling API, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform value from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} not a probability");
        ((self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Random operations on slices (only `choose` is used here).
pub trait SliceRandom {
    /// Element type.
    type Item;
    /// A uniformly chosen element, or `None` for an empty slice.
    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;
    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_range(0..self.len())])
        }
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256\*\* generator (stands in for rand's
    /// `StdRng`; different stream, same contract).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro paper.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// The glob import every call site uses: traits only, like real rand.
pub mod prelude {
    pub use super::{Rng, RngCore, SampleRange, SeedableRng, SliceRandom};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::rngs::StdRng;

    #[test]
    fn determinism() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranges_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: i32 = rng.gen_range(-1000..1000);
            assert!((-1000..1000).contains(&v));
            let u: usize = rng.gen_range(2..=5);
            assert!((2..=5).contains(&u));
            let f: f64 = rng.gen_range(0.5..1.5);
            assert!((0.5..1.5).contains(&f));
        }
    }

    /// The 64-bit remainder equals the 128-bit one, and a full 64-bit
    /// range still takes the wide path.
    #[test]
    fn reduce_matches_wide_remainder() {
        let mut rng = StdRng::seed_from_u64(11);
        let spans = [1u128, 3, u64::MAX as u128, 1 << 64];
        for _ in 0..1000 {
            let x = rng.next_u64();
            let span = rng.next_u64() as u128 % 1000 + 1;
            for span in spans.into_iter().chain([span]) {
                assert_eq!(super::reduce(x, span), (x as u128) % span, "{x} % {span}");
            }
        }
        assert_eq!(super::reduce(u64::MAX, 1 << 64), u64::MAX as u128);
        let mut a = StdRng::seed_from_u64(5);
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..=u64::MAX), b.next_u64());
        }
    }

    #[test]
    fn gen_bool_extremes_and_mean() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn choose_covers_slice() {
        let mut rng = StdRng::seed_from_u64(3);
        let xs = [10, 20, 30];
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &v = xs.choose(&mut rng).unwrap();
            seen[(v / 10 - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
