//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so this workspace
//! vendors the *subset* of the rand 0.9 API its sources actually use:
//!
//! * [`rngs::StdRng`] + [`SeedableRng::seed_from_u64`]
//! * [`Rng::random_range`] over half-open integer and float ranges
//! * [`seq::SliceRandom::shuffle`] and
//!   [`seq::SliceRandom::partial_shuffle`]
//!
//! The generator is xoshiro256++ seeded via SplitMix64 — deterministic
//! in the seed and identical on every platform, which is all the
//! engine's reproducibility contract requires. It is **not** the same
//! stream as the real `rand`'s `StdRng` (ChaCha12), so seeds produce
//! different (but equally valid) random structures.

use std::ops::Range;

/// Low-level entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample from a half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// A uniform boolean with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore> Rng for T {}

/// Ranges that can produce a uniform sample (the shim's analogue of
/// `rand::distr::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
}

/// Maps 64 random bits to a `f64` in `[0, 1)`.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                // Lemire's widening-multiply map; the modulo bias over a
                // 128-bit draw is far below anything a test could see.
                let draw = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                let offset = draw % span;
                (self.start as u128).wrapping_add(offset) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = unit_f64(rng.next_u64()) as $t;
                self.start + u * (self.end - self.start)
            }
        }
    )*};
}

float_sample_range!(f32, f64);

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman &
    /// Vigna), seeded through SplitMix64 exactly as its authors
    /// recommend.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
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

pub mod seq {
    //! Slice sampling helpers.

    use super::{Rng, RngCore};

    /// Shuffling and choosing on slices, mirroring
    /// `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// The slice element type.
        type Item;

        /// Uniform in-place Fisher–Yates shuffle.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);

        /// Shuffles only enough of the slice to fill its first `amount`
        /// positions with a uniform random ordered sample of distinct
        /// elements, and returns `(sample, rest)`. Costs exactly
        /// `min(amount, len)` range draws, however long the slice is,
        /// and the sample is uniform whatever order the slice held.
        ///
        /// Mirrors `rand::seq::SliceRandom::partial_shuffle`'s
        /// signature; the real crate fills the sample from the back of
        /// the slice, this shim from the front.
        fn partial_shuffle<R: RngCore>(
            &mut self,
            rng: &mut R,
            amount: usize,
        ) -> (&mut [Self::Item], &mut [Self::Item]);

        /// A uniformly chosen element, or `None` on an empty slice.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn partial_shuffle<R: RngCore>(
            &mut self,
            rng: &mut R,
            amount: usize,
        ) -> (&mut [T], &mut [T]) {
            let amount = amount.min(self.len());
            for i in 0..amount {
                let j = rng.random_range(i..self.len());
                self.swap(i, j);
            }
            self.split_at_mut(amount)
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.random_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    /// Counts the 64-bit words drawn from the wrapped generator.
    struct Counting {
        inner: StdRng,
        words: u64,
    }

    impl RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    fn counting(seed: u64) -> Counting {
        Counting {
            inner: StdRng::seed_from_u64(seed),
            words: 0,
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random_range(0u32..1000), b.random_range(0u32..1000));
        }
        let mut c = StdRng::seed_from_u64(8);
        let same: Vec<u32> = (0..32)
            .map(|_| StdRng::seed_from_u64(7).random_range(0..u32::MAX))
            .collect();
        let other: Vec<u32> = (0..32).map(|_| c.random_range(0..u32::MAX)).collect();
        assert_ne!(same, other);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.random_range(3u32..17);
            assert!((3..17).contains(&v));
            let f = rng.random_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&f));
            let u = rng.random_range(0usize..5);
            assert!(u < 5);
        }
    }

    #[test]
    fn range_samples_hit_every_value() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.random_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn choose_covers_slice() {
        let mut rng = StdRng::seed_from_u64(4);
        let v = [1, 2, 3];
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(*v.choose(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn partial_shuffle_draws_once_per_sampled_slot() {
        // One integer range draw is two 64-bit words; a full shuffle of
        // the same slice would take 999 draws.
        let words_per_draw = {
            let mut rng = counting(5);
            rng.random_range(0usize..7);
            rng.words
        };
        for amount in [0, 1, 8, 64] {
            let mut rng = counting(5);
            let mut v: Vec<u32> = (0..1000).collect();
            let (head, rest) = v.partial_shuffle(&mut rng, amount);
            assert_eq!((head.len(), rest.len()), (amount, 1000 - amount));
            assert_eq!(rng.words, amount as u64 * words_per_draw);
        }
        // An amount past the end is clamped to the slice.
        let mut rng = counting(6);
        let mut v: Vec<u32> = (0..5).collect();
        assert_eq!(v.partial_shuffle(&mut rng, 9).0.len(), 5);
        assert_eq!(rng.words, 5 * words_per_draw);
    }

    #[test]
    fn partial_shuffle_keeps_a_permutation_with_a_distinct_prefix() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut v: Vec<u32> = (0..40).collect();
        for amount in [1, 5, 39, 40] {
            let (head, _) = v.partial_shuffle(&mut rng, amount);
            let mut prefix = head.to_vec();
            prefix.sort_unstable();
            prefix.dedup();
            assert_eq!(prefix.len(), amount, "prefix repeats an element");
            let mut all = v.clone();
            all.sort_unstable();
            assert_eq!(all, (0..40).collect::<Vec<_>>());
        }
    }

    #[test]
    fn partial_shuffle_reaches_every_prefix_slot_from_every_element() {
        // Starting from the identity each time, every element must land
        // in every one of the sampled slots, about equally often.
        const N: usize = 6;
        const AMOUNT: usize = 3;
        const TRIALS: usize = 6000;
        let mut rng = StdRng::seed_from_u64(8);
        let mut hits = [[0usize; AMOUNT]; N];
        for _ in 0..TRIALS {
            let mut v: Vec<usize> = (0..N).collect();
            let (head, _) = v.partial_shuffle(&mut rng, AMOUNT);
            for (slot, &e) in head.iter().enumerate() {
                hits[e][slot] += 1;
            }
        }
        let expected = TRIALS / N;
        for (e, row) in hits.iter().enumerate() {
            for (slot, &h) in row.iter().enumerate() {
                assert!(
                    h.abs_diff(expected) * 5 < expected,
                    "element {e} in slot {slot}: {h} hits, expected ~{expected}"
                );
            }
        }
    }
}
