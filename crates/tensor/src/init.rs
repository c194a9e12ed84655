//! Seeded random initialization for model parameters.
//!
//! Experiments in this repo must be exactly reproducible, so all randomness
//! flows from a [`SeedStream`]: a ChaCha8 keystream implemented here, whose
//! output is this workspace's own contract rather than a dependency's.

use crate::tensor::Tensor;

/// Parameter initialization schemes.
///
/// # Example
///
/// ```
/// use hadfl_tensor::{Initializer, SeedStream};
///
/// let mut rng = SeedStream::new(42);
/// let w = Initializer::XavierUniform { fan_in: 64, fan_out: 32 }.init(&[64, 32], &mut rng);
/// assert_eq!(w.dims(), &[64, 32]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Initializer {
    /// All zeros (used for biases).
    Zeros,
    /// Uniform in `[-limit, limit]` with `limit = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform {
        /// Input fan of the layer.
        fan_in: usize,
        /// Output fan of the layer.
        fan_out: usize,
    },
    /// Gaussian with `std = sqrt(2 / fan_in)` (He initialization for ReLU nets).
    HeNormal {
        /// Input fan of the layer.
        fan_in: usize,
    },
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Inclusive lower bound.
        lo: f32,
        /// Inclusive upper bound.
        hi: f32,
    },
}

impl Initializer {
    /// Draws a tensor of the given shape from this distribution.
    ///
    /// # Panics
    ///
    /// Panics if a `Uniform` initializer has `lo > hi`.
    pub fn init(self, dims: &[usize], rng: &mut SeedStream) -> Tensor {
        let mut t = Tensor::zeros(dims);
        match self {
            Initializer::Zeros => {}
            Initializer::XavierUniform { fan_in, fan_out } => {
                let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
                for v in t.as_mut_slice() {
                    *v = rng.uniform(-limit, limit);
                }
            }
            Initializer::HeNormal { fan_in } => {
                let std = (2.0 / fan_in.max(1) as f32).sqrt();
                for v in t.as_mut_slice() {
                    *v = rng.normal() * std;
                }
            }
            Initializer::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform bounds out of order: [{lo}, {hi}]");
                for v in t.as_mut_slice() {
                    *v = rng.uniform(lo, hi);
                }
            }
        }
        t
    }
}

/// A deterministic, forkable random-number stream.
///
/// `SeedStream` is a ChaCha8 generator (8 rounds, 64-bit block counter,
/// stream id 0) with [`fork`](Self::fork), which derives an independent
/// child stream — this is how per-device RNGs are split from a single
/// experiment seed without correlation. A 64-bit seed is expanded to the
/// 256-bit key with splitmix64, and the samplers consume the keystream one
/// 32-bit word at a time: [`next_u64`](Self::next_u64) takes two (low word
/// first), [`uniform`](Self::uniform) one (24 bits of it), and
/// [`index`](Self::index) a `u64` reduced by Lemire's multiply-shift.
///
/// Every draw is pinned: the known-answer test in this module fixes the
/// stream bit for bit, and the goldens built on it move with any change to
/// it — `cnn_golden` and `baseline_golden`, the `end_to_end.rs` and `exec`
/// event-stream fingerprints, and the round benchmark's golden
/// `final_accuracy`.
#[derive(Debug, Clone)]
pub struct SeedStream {
    seed: [u8; 32],
    /// Block counter (words 12–13 of the ChaCha state).
    counter: u64,
    /// Current keystream block.
    block: [u32; WORDS],
    /// Next unconsumed word in `block`; `WORDS` forces a refill.
    index: usize,
}

const WORDS: usize = 16;
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64's output finalizer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline(always)]
fn quarter_round(state: &mut [u32; WORDS], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl SeedStream {
    /// Creates a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut key = [0u8; 32];
        let mut z = seed;
        for chunk in key.chunks_mut(8) {
            z = z.wrapping_add(GOLDEN_GAMMA);
            chunk.copy_from_slice(&mix64(z).to_le_bytes());
        }
        Self::from_key(key)
    }

    fn from_key(seed: [u8; 32]) -> Self {
        SeedStream {
            seed,
            counter: 0,
            block: [0; WORDS],
            index: WORDS,
        }
    }

    /// Derives an independent child stream labelled by `salt`.
    ///
    /// Two forks of the same parent with different salts produce
    /// uncorrelated sequences; the parent stream is not advanced.
    pub fn fork(&self, salt: u64) -> Self {
        let mut seed = self.seed;
        // Mix the salt into the seed words with splitmix-style finalization
        // so adjacent salts produce unrelated child seeds.
        let z = mix64(salt.wrapping_add(GOLDEN_GAMMA));
        for (i, b) in z.to_le_bytes().iter().enumerate() {
            seed[i] ^= b;
            seed[i + 8] ^= b.rotate_left(3);
        }
        Self::from_key(seed)
    }

    /// Uniform sample in `[lo, hi)` (or exactly `lo` when `lo == hi`).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        if lo == hi {
            return lo;
        }
        assert!(lo < hi, "uniform: empty range [{lo}, {hi})");
        let u = (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32);
        let v = lo + (hi - lo) * u;
        // Guard against rounding up to the excluded endpoint.
        if v >= hi {
            hi - (hi - lo) * f32::EPSILON
        } else {
            v
        }
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        let u1 = self.uniform(f32::EPSILON, 1.0);
        let u2 = self.uniform(0.0, 1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform `u64` (for deriving sub-seeds).
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    fn next_u32(&mut self) -> u32 {
        if self.index >= WORDS {
            self.refill();
        }
        let word = self.block[self.index];
        self.index += 1;
        word
    }

    /// Computes the keystream block at `counter` and advances the counter.
    fn refill(&mut self) {
        let mut state = [0u32; WORDS];
        // "expand 32-byte k" constants.
        state[..4].copy_from_slice(&[0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574]);
        for (word, bytes) in state[4..12].iter_mut().zip(self.seed.chunks_exact(4)) {
            *word = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
        }
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        // Words 14–15: stream id, fixed to zero.
        let initial = state;
        for _ in 0..4 {
            // Column round, then diagonal round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, init) in state.iter_mut().zip(initial) {
            *word = word.wrapping_add(init);
        }
        self.block = state;
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SeedStream::new(7);
        let mut b = SeedStream::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeedStream::new(7);
        let mut b = SeedStream::new(8);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let parent = SeedStream::new(1);
        let mut c1 = parent.fork(0);
        let mut c1_again = parent.fork(0);
        let c2 = parent.fork(1);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        let mut a = parent.fork(0);
        let mut b = c2.clone();
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "sibling forks must not be correlated");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SeedStream::new(3);
        for _ in 0..1000 {
            let v = rng.uniform(-0.5, 0.5);
            assert!((-0.5..0.5).contains(&v));
        }
        assert_eq!(rng.uniform(2.0, 2.0), 2.0);
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut rng = SeedStream::new(11);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn xavier_respects_limit() {
        let mut rng = SeedStream::new(5);
        let w = Initializer::XavierUniform {
            fan_in: 10,
            fan_out: 10,
        }
        .init(&[10, 10], &mut rng);
        let limit = (6.0f32 / 20.0).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= limit));
        // and it is not degenerate
        assert!(w.norm_l2() > 0.0);
    }

    #[test]
    fn he_normal_scales_with_fan_in() {
        let mut rng = SeedStream::new(5);
        let w = Initializer::HeNormal { fan_in: 1_000_000 }.init(&[100], &mut rng);
        assert!(w.norm_l2() < 1.0, "large fan-in must shrink weights");
    }

    #[test]
    fn zeros_initializer_is_zero() {
        let mut rng = SeedStream::new(5);
        let w = Initializer::Zeros.init(&[4, 4], &mut rng);
        assert_eq!(w, Tensor::zeros(&[4, 4]));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SeedStream::new(9);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    /// The draws one stream yields, in the order [`check_known`] takes them.
    struct Known {
        words: [u64; 16],
        uniform: [u32; 8],
        normal: [u32; 8],
        index: [usize; 8],
        shuffled: [usize; 16],
    }

    /// Draws 16 `next_u64`, 8 `uniform(-1, 1)`, 8 `normal`, 8 `index(97)`
    /// and one shuffle of `0..16` from `s`, and compares them bit for bit.
    fn check_known(mut s: SeedStream, known: &Known) {
        let words: Vec<u64> = (0..16).map(|_| s.next_u64()).collect();
        assert_eq!(words, known.words);
        let uniform: Vec<u32> = (0..8).map(|_| s.uniform(-1.0, 1.0).to_bits()).collect();
        assert_eq!(uniform, known.uniform);
        let normal: Vec<u32> = (0..8).map(|_| s.normal().to_bits()).collect();
        assert_eq!(normal, known.normal);
        let index: Vec<usize> = (0..8).map(|_| s.index(97)).collect();
        assert_eq!(index, known.index);
        let mut xs: Vec<usize> = (0..16).collect();
        s.shuffle(&mut xs);
        assert_eq!(xs, known.shuffled);
    }

    #[test]
    fn draws_match_known_answers() {
        check_known(
            SeedStream::new(0),
            &Known {
                words: [
                    0xbf94d1332d8ee5e8,
                    0x3a738775a6da5a01,
                    0x3d46ff10c143ee06,
                    0x17c6ab23e9f6424f,
                    0x5ce2479b2fb6898b,
                    0x0ae8099f86bff662,
                    0x5f2f09fdc72f90bd,
                    0x95d53efa28e5a01f,
                    0x1131e62b94efaf48,
                    0x9eec7e5517d7a4e4,
                    0xe553e127cd4c18d1,
                    0xb9d551f13505e613,
                    0x0a1ffcc2d28d82a2,
                    0xfc9216baf64a441d,
                    0xb3c61fd54b017931,
                    0xe857b19d23eb502b,
                ],
                uniform: [
                    0xbf480654, 0xbe96bb50, 0xbeee265c, 0xbf7ac392, 0xbf06e93e, 0x3f14c820,
                    0x3eff7020, 0x3e8b050c,
                ],
                normal: [
                    0x3f7678cf, 0xbe848824, 0xbf8666b1, 0x3f5e296e, 0x3f595dfe, 0x3ffb511c,
                    0x3febf06a, 0x3f0446af,
                ],
                index: [18, 0, 18, 24, 50, 19, 66, 28],
                shuffled: [7, 12, 14, 1, 4, 10, 0, 11, 8, 2, 3, 9, 13, 6, 5, 15],
            },
        );
        check_known(
            SeedStream::new(u64::MAX),
            &Known {
                words: [
                    0x167fca9c60ef8644,
                    0xf792fa24f2f83696,
                    0x71e8f282dbcbe0b1,
                    0xebaa0dca9492a6e7,
                    0x438b9759ff25b8bb,
                    0x3d92cea85dd8c0cf,
                    0xe533584b2f5b3043,
                    0x62a4544fe79afbc9,
                    0x3691a39c3c8465a9,
                    0x0b89def38277c5fc,
                    0x61938162e9acb0a3,
                    0x874658cbe7495616,
                    0xc6735925133857ef,
                    0x74fbf0a076eb6256,
                    0x626f49c18fcdd7f3,
                    0x8324ecf5e21e2c38,
                ],
                uniform: [
                    0xbf4b37ce, 0xbef9f034, 0xbe6695d8, 0x3ef3b318, 0x3f1b96d8, 0x3f599f7a,
                    0x3e562a98, 0xbf24b682,
                ],
                normal: [
                    0x3d6a164e, 0xbe81c33a, 0x3fa0253f, 0x3d219f6e, 0x400e8b57, 0xbf685a7e,
                    0xbd931e96, 0x3ec65ce9,
                ],
                index: [73, 48, 4, 69, 50, 75, 62, 54],
                shuffled: [7, 10, 9, 2, 6, 12, 8, 14, 13, 3, 1, 11, 15, 5, 4, 0],
            },
        );
        check_known(
            SeedStream::new(42).fork(7),
            &Known {
                words: [
                    0xfab5ec9464080004,
                    0x5fe81059f4889ab8,
                    0x5f32fa8395227aea,
                    0x44ef5ba5b8fd6e2a,
                    0x8d969b9ac08a9dc1,
                    0x5a14bd7c699a4ca1,
                    0x1f5421a70f16744b,
                    0xfe79e69b8a75bebc,
                    0xd656b3626b8c39f3,
                    0x1fd34db2d5be3a8e,
                    0xf7a47107433ed74e,
                    0x9da3f0f18039060d,
                    0xf8443736342c0301,
                    0xd8dc36a476bfcb33,
                    0x7dfd19ee4022f158,
                    0xd0ced7e85eddb175,
                ],
                uniform: [
                    0xbf7e1a94, 0x3ed4d350, 0x3f15c784, 0xbe992ad0, 0x3e32ebc8, 0x3f241186,
                    0xbe5c5308, 0xbea531f4,
                ],
                normal: [
                    0xbf706553, 0x3e193342, 0x3f28aab2, 0xbf04640f, 0xbe2f18be, 0x3efc570c,
                    0xbf28d9d5, 0xbeb1b646,
                ],
                index: [91, 7, 70, 67, 28, 33, 13, 49],
                shuffled: [7, 3, 13, 0, 12, 9, 6, 4, 10, 8, 11, 15, 1, 2, 14, 5],
            },
        );
    }

    #[test]
    fn keystream_is_balanced() {
        // Crude sanity check on the keystream: ones-density near 50%.
        let mut rng = SeedStream::new(3);
        let ones: u32 = (0..500).map(|_| rng.next_u64().count_ones()).sum();
        let density = ones as f64 / (500.0 * 64.0);
        assert!((density - 0.5).abs() < 0.02, "density {density}");
    }

    #[test]
    fn clone_continues_at_the_same_position() {
        let mut a = SeedStream::new(5);
        for _ in 0..7 {
            a.next_u64();
        }
        a.uniform(0.0, 1.0); // leaves the block at an odd word
        let mut b = a.clone();
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_index_range_panics() {
        SeedStream::new(1).index(0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn reversed_uniform_range_panics() {
        SeedStream::new(1).uniform(1.0, 0.0);
    }
}
