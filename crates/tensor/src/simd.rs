//! Fixed-association SIMD reduction primitives, and the dispatch that
//! runs the hot kernels on the widest instruction set the CPU has.
//!
//! The scalar reductions these replace (`acc += x*y` down a slice) are
//! latency-bound: every addition waits on the previous one, so the
//! compiler cannot vectorize them without changing the float
//! association — which the determinism contract (DESIGN.md §10)
//! forbids it to do silently. These kernels *define* the association
//! as eight independent accumulator lanes instead: element `i` joins
//! lane `i % 8` (the ragged tail included), and the lanes combine in a
//! fixed pairwise tree. That association is a pure function of the
//! slice length — never of the thread count, the chunking, or the
//! instruction set — so serial and parallel builds for any target
//! produce identical bits, and the compiler is free to map the eight
//! lanes onto whatever vector width the target has.
//!
//! Multiplies and adds are kept as separate IEEE operations (no
//! `mul_add`): Rust never contracts `a + x * y` into an FMA on its
//! own, so the bit pattern is stable across opt levels and targets.
//!
//! # One body, two compilations
//!
//! A build for the x86-64 baseline vectorizes for SSE2: four lanes, so
//! the eight accumulator lanes of a dot take two registers. The conv
//! and matmul kernels (`linalg`'s row-dot and band product, the conv
//! weight gradient's band, both input-gradient bodies) are therefore
//! each written once, as an `#[inline(always)]` function, and the
//! private `dispatch!` macro compiles that body twice: once for the
//! baseline and once inside an `avx2` function, where the same eight
//! lanes fill one 256-bit register. Each call names the instruction
//! set it runs on, normally the widest the CPU has ([`kernel_isa`]
//! says which). Both compilations perform the same IEEE operations in
//! the same order, so the bits do not depend on which one ran; the
//! unit tests run every kernel on both and compare bits.
//!
//! The compilations may differ in tile shape: a shape is a const
//! generic of the body, and `dispatch!` instantiates each compilation
//! at its own instruction set's shape (`linalg::row_block`,
//! `conv::gather_px`), sized for that set's registers. A tile decides
//! which outputs are computed together, never the order of one
//! output's terms, so it does not move a bit either.
//!
//! The AVX2 compilation enables `avx2` and nothing else: with `fma`
//! LLVM still would not contract `a + x * y`, so FMA would buy nothing
//! the bit contract allows. The body is a named function the `avx2`
//! wrapper calls directly, never a closure: a closure is compiled where
//! it is written, outside the wrapper, and the wrapper then came out as
//! a jump into the baseline code.
//!
//! On other architectures the body is compiled once.

/// Accumulator lanes. Eight f32 lanes fill one AVX2 register and two
/// NEON registers — enough to hide FP add latency on either.
pub const LANES: usize = 8;

/// Folds eight lanes in a fixed pairwise tree:
/// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`. Part of the defined
/// association; every kernel in this module funnels through it.
#[inline]
pub(crate) fn combine(acc: [f32; LANES]) -> f32 {
    let s0 = acc[0] + acc[4];
    let s1 = acc[1] + acc[5];
    let s2 = acc[2] + acc[6];
    let s3 = acc[3] + acc[7];
    (s0 + s2) + (s1 + s3)
}

/// Dot product with the eight-lane association.
#[inline]
pub fn dot8(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (xs, ys) in ac.by_ref().zip(bc.by_ref()) {
        for ((l, &x), &y) in acc.iter_mut().zip(xs).zip(ys) {
            *l += x * y;
        }
    }
    for ((l, &x), &y) in acc.iter_mut().zip(ac.remainder()).zip(bc.remainder()) {
        *l += x * y;
    }
    combine(acc)
}

/// Sum with the eight-lane association.
#[inline]
pub fn sum8(v: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut vc = v.chunks_exact(LANES);
    for xs in vc.by_ref() {
        for (l, &x) in acc.iter_mut().zip(xs) {
            *l += x;
        }
    }
    for (l, &x) in acc.iter_mut().zip(vc.remainder()) {
        *l += x;
    }
    combine(acc)
}

/// Sum of squares with the eight-lane association (the [`dot8`] of a
/// slice with itself, minus the second pass over memory).
#[inline]
pub fn sum_sq8(v: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut vc = v.chunks_exact(LANES);
    for xs in vc.by_ref() {
        for (l, &x) in acc.iter_mut().zip(xs) {
            *l += x * x;
        }
    }
    for (l, &x) in acc.iter_mut().zip(vc.remainder()) {
        *l += x * x;
    }
    combine(acc)
}

/// Writes a kernel's dispatcher: `fn name(isa, args..)` that runs the
/// `#[inline(always)]` body `body(args..)` compiled for `isa`.
///
/// ```text
/// dispatch! {
///     /// docs
///     fn band_product(lhs: Strided<'_>, ..) = band_product_body::<{ row_block(ISA) }>;
/// }
/// ```
///
/// A body with a tile shape takes it as const generic arguments after
/// its name, written in terms of `ISA`: each compilation evaluates
/// them with `ISA` naming its own instruction set, so the baseline
/// compilation is instantiated at the baseline's shape and the AVX2
/// one at AVX2's, and no other shape is compiled. The dispatcher
/// itself holds the baseline compilation; attributes written above it
/// (`#[inline(never)]`) apply to that one. `Isa::Avx2` on a CPU
/// without AVX2 runs the baseline. `dispatch!(@has_avx2)` is the CPU
/// check.
macro_rules! dispatch {
    (@has_avx2) => {{
        #[cfg(target_arch = "x86_64")]
        let has = std::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let has = false;
        has
    }};
    (@call $isa:ident, $body:ident, [], ($($arg:ident),*)) => {
        $body($($arg),*)
    };
    (@call $isa:ident, $body:ident, [$($shape:tt),+], ($($arg:ident),*)) => {{
        const ISA: $crate::simd::Isa = $crate::simd::Isa::$isa;
        $body::<$($shape),+>($($arg),*)
    }};
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
            = $body:ident $(::<$($shape:tt),+>)?;
    ) => {
        $(#[$attr])*
        $vis fn $name(isa: $crate::simd::Isa, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if isa == $crate::simd::Isa::Avx2 && $crate::simd::dispatch!(@has_avx2) {
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $crate::simd::dispatch!(@call Avx2, $body, [$($($shape),+)?], ($($arg),*))
                }
                // SAFETY: `avx2` is safe code whose only requirement is
                // a CPU that runs AVX2, and this one has just said so.
                return unsafe { avx2($($arg),*) };
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = isa;
            $crate::simd::dispatch!(@call Baseline, $body, [$($($shape),+)?], ($($arg),*))
        }
    };
}
pub(crate) use dispatch;

/// The instruction sets the dispatched kernels are compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    /// The target's baseline (SSE2 on x86-64).
    Baseline,
    /// AVX2, taken only when the CPU says it has it.
    Avx2,
}

impl Isa {
    /// The widest instruction set this CPU runs: what every call in
    /// the crate dispatches to.
    pub(crate) fn best() -> Isa {
        if dispatch!(@has_avx2) {
            Isa::Avx2
        } else {
            Isa::Baseline
        }
    }
}

/// Which compilation of the conv and matmul kernels runs in this
/// process: `"avx2"` or `"baseline"`. Printed beside kernel timings so
/// a table says what it measured.
pub fn kernel_isa() -> &'static str {
    match Isa::best() {
        Isa::Baseline => "baseline",
        Isa::Avx2 => "avx2",
    }
}

/// Runs `run` on every instruction set this CPU has, baseline first,
/// asserts that the results agree bit for bit (NaN payloads included)
/// and returns the baseline's. Without AVX2 it says so and runs the
/// baseline alone.
#[cfg(test)]
pub(crate) fn on_every_isa(what: &str, mut run: impl FnMut(Isa) -> Vec<f32>) -> Vec<f32> {
    let base = run(Isa::Baseline);
    if Isa::best() == Isa::Baseline {
        eprintln!("{what}: this CPU has no AVX2, checking the baseline only");
        return base;
    }
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&run(Isa::Avx2)),
        bits(&base),
        "{what}: avx2 against baseline"
    );
    base
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The defined association, written as naively as possible: lane
    /// `i % 8`, then the pairwise tree. Any kernel change that shifts
    /// a single bit against this is a determinism break.
    fn dot_ref(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            acc[i % LANES] += x * y;
        }
        combine(acc)
    }

    fn noisy(n: usize, seed: f32) -> Vec<f32> {
        // Varied magnitudes so association changes actually move bits.
        (0..n)
            .map(|i| (i as f32 * 0.7 + seed).sin() * 10f32.powi((i % 7) as i32 - 3))
            .collect()
    }

    #[test]
    fn dot8_matches_the_defined_association_at_every_tail_length() {
        for n in 0..40 {
            let a = noisy(n, 0.3);
            let b = noisy(n, 1.1);
            assert_eq!(dot8(&a, &b).to_bits(), dot_ref(&a, &b).to_bits(), "n={n}");
        }
    }

    #[test]
    fn sum8_and_sum_sq8_are_dot8_specializations() {
        for n in [0, 1, 7, 8, 9, 31, 100] {
            let v = noisy(n, 2.7);
            let ones = vec![1.0f32; n];
            assert_eq!(sum8(&v).to_bits(), dot8(&v, &ones).to_bits(), "n={n}");
            assert_eq!(sum_sq8(&v).to_bits(), dot8(&v, &v).to_bits(), "n={n}");
        }
    }

    #[test]
    fn empty_slices_reduce_to_zero() {
        assert_eq!(dot8(&[], &[]), 0.0);
        assert_eq!(sum8(&[]), 0.0);
        assert_eq!(sum_sq8(&[]), 0.0);
    }

    #[test]
    fn values_are_close_to_f64_ground_truth() {
        let a = noisy(1000, 0.5);
        let b = noisy(1000, 4.2);
        let exact: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum::<f64>();
        let got = dot8(&a, &b) as f64;
        assert!(
            (got - exact).abs() <= 1e-3 * exact.abs().max(1.0),
            "{got} vs {exact}"
        );
    }
}
