//! Minimal, dependency-free stand-in for the `rand` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors the small slice of the `rand 0.8` API the project
//! actually uses: [`rngs::SmallRng`], the [`Rng`] / [`SeedableRng`]
//! traits (`gen`, `gen_range`, `gen_bool`), and
//! [`seq::SliceRandom::shuffle`].
//!
//! The generator is xoshiro256++ seeded through SplitMix64, so every
//! stream is a pure deterministic function of its `u64` seed — the
//! property the whole reproduction (datagen walks, SA runs, GBT
//! subsampling) is built on. The exact streams differ from upstream
//! `rand`'s `SmallRng`, which is fine: nothing in this repo depends on
//! upstream's bit sequences, only on seed-determinism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::ops::Range;

/// A random generator seedable from a `u64`.
pub trait SeedableRng: Sized {
    /// Creates a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from an RNG's raw output
/// (the analog of `rand`'s `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Use the high bit: xoshiro's low bits are its weakest.
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges that can be sampled uniformly (the analog of `rand`'s
/// `SampleRange`). Implemented for half-open `Range` over the integer
/// and float types the project draws from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                // Multiply-shift maps next_u64 onto [0, span) with
                // negligible bias for the span sizes used here.
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + v as $t
            }
        }
    )*};
}
impl_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_range_sint {
    ($($t:ty:$u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as i128 + v as i128) as $t
            }
        }
    )*};
}
impl_range_sint!(i8:u8, i16:u16, i32:u32, i64:u64, isize:usize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u: f64 = Standard::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f32> for Range<f32> {
    #[inline]
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u: f32 = Standard::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

/// The generator trait: raw 64-bit output plus the derived sampling
/// helpers used across the workspace.
pub trait Rng {
    /// The next raw 64-bit output of the generator.
    fn next_u64(&mut self) -> u64;

    /// Samples a value of type `T` from the standard distribution.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from `range` (half-open).
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        let u: f64 = self.gen();
        u < p
    }
}

/// Generator implementations.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256++ — the project's sole generator.
    ///
    /// Small state, fast, and with exactly the property the repo
    /// relies on: the output stream is a pure function of the seed.
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            SmallRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl Rng for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::Rng;

    /// Slice extension trait providing seeded shuffling.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle driven by `rng`.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let span = (i + 1) as u64;
                let j = ((rng.next_u64() as u128 * span as u128) >> 64) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(SmallRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_in_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let u = r.gen_range(3usize..17);
            assert!((3..17).contains(&u));
            let f = r.gen_range(0.2f64..0.9);
            assert!((0.2..0.9).contains(&f));
            let g = r.gen_range(-2.5f32..2.5);
            assert!((-2.5..2.5).contains(&g));
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bool_and_floats_reasonably_distributed() {
        let mut r = SmallRng::seed_from_u64(11);
        let trues = (0..10_000).filter(|_| r.gen::<bool>()).count();
        assert!(
            (4000..6000).contains(&trues),
            "bool heavily biased: {trues}"
        );
        let mean: f64 = (0..10_000).map(|_| r.gen::<f64>()).sum::<f64>() / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "f64 mean off: {mean}");
    }

    #[test]
    fn shuffle_is_seeded_permutation() {
        let mut v1: Vec<u32> = (0..50).collect();
        let mut v2: Vec<u32> = (0..50).collect();
        v1.shuffle(&mut SmallRng::seed_from_u64(5));
        v2.shuffle(&mut SmallRng::seed_from_u64(5));
        assert_eq!(v1, v2);
        let mut sorted = v1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let mut v3: Vec<u32> = (0..50).collect();
        v3.shuffle(&mut SmallRng::seed_from_u64(6));
        assert_ne!(v1, v3);
    }
}
