//! The f64 lane every fast kernel is written against.
//!
//! A kernel in [`crate::kernel`] is one generic function,
//! `eval<V: F64Lane, const PREFIX: bool>(x: V) -> V`, and [`F64Lane`]
//! is the whole vocabulary it may use: IEEE add/sub/mul/div and negation,
//! splat, abs, compares and a mask select, the round-to-even and
//! truncating conversions to a small-integer lane, exact floor of
//! non-negative values, the integer ops of the reductions (`& 63`,
//! `>> 6`, `pow2i`, the cospi mirror `256 - n`), the log reduction's
//! exponent/significand split, and the packed-table gathers. Two types
//! implement it:
//!
//! * `f64`, one lane: the scalar ladder and the portable batched path;
//! * [`avx2::Avx2`], four lanes in a `__m256d` (`simd` feature,
//!   x86_64): the batched stages on AVX2 hardware.
//!
//! # Why the lanes agree bit for bit
//!
//! Rust never contracts a multiply and an add into an FMA, and both
//! implementations map each operation to one IEEE-754 double operation
//! rounding to nearest-even (`_mm256_*_pd` in the AVX2 lane). The
//! conversions agree on every value a kernel feeds them: `round_even`
//! is the `1.5·2^52` shift in `f64` and `cvtpd_epi32` (the MXCSR
//! default, nearest-even, which Rust never changes) in AVX2;
//! `trunc_pos` and `floor_pos` are exact on non-negative values below
//! `2^31` and `2^53`. So one op sequence gives one result in every lane;
//! `lane_agreement` in the kernel tests checks it before rounding.
//!
//! # Branches
//!
//! [`F64Lane::blend`] picks between two computed values; the expensive
//! branches (the sinh/cosh Taylor-vs-exp split, cospi's `n = 0` path) go
//! through [`F64Lane::select`], which takes both sides as closures. The
//! `f64` lane branches and runs one side, so the scalar ladder pays for
//! one; the AVX2 lane runs each side exactly once and blends.
//!
//! # Inlining
//!
//! Every method is `#[inline(always)]` and the AVX2 methods carry no
//! `#[target_feature]`: they run inside [`F64Lane::enter`], whose AVX2
//! implementation is one `#[target_feature(enable = "avx2")]` function
//! per call site. Once a method is inlined there its intrinsics inline
//! too, so each stage is one call-free body. Every closure handed to
//! `enter` or `select` is `#[inline(always)]` as well: LLVM may keep a
//! large closure with two call sites out of line (the exp branch of
//! sinh, say, reached from the f32 and the posit rows), and an outlined
//! closure has no AVX2 feature, so each intrinsic in it becomes a call.
//! `ci.sh` checks the stages and the scalar entry points with `objdump`
//! on the release build of the `simd` leg.

use core::ops::{Add, BitAnd, BitOr, BitXor, Div, Mul, Neg, Not, Sub};

use crate::slice::LANES;
use crate::tables::Packed;

/// The plain-double operations of the fast kernels, over one or more
/// f64 lanes. See the module docs for the bit-identity argument.
pub(crate) trait F64Lane:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + Add<f64, Output = Self>
    + Sub<f64, Output = Self>
    + Mul<f64, Output = Self>
    + Div<f64, Output = Self>
{
    /// Lanes per value.
    const WIDTH: usize;
    /// One boolean per lane.
    type Mask: Copy
        + BitAnd<Output = Self::Mask>
        + BitOr<Output = Self::Mask>
        + BitXor<Output = Self::Mask>
        + Not<Output = Self::Mask>;
    /// One small signed integer per lane (`|i| < 2^31`).
    type Int: Copy;
    /// Proof that the CPU runs this lane's instructions.
    type Isa: Copy;

    /// Runs the `#[inline(always)]` closure `f` with this lane's target
    /// features enabled.
    fn enter<R>(isa: Self::Isa, f: impl FnOnce() -> R) -> R;
    /// Lanes `WIDTH·g ..` of `y` (`g` taken modulo the group count).
    fn load(isa: Self::Isa, y: &[f64; LANES], g: usize) -> Self;
    /// Stores into lanes `WIDTH·g ..` of `y` (`g` modulo the group count).
    fn store(self, y: &mut [f64; LANES], g: usize);
    /// `v` in every lane (`self` only proves the lane is usable).
    fn splat(self, v: f64) -> Self;
    /// `|x|` (clears the sign bit).
    fn abs(self) -> Self;
    /// `x < c` (false for NaN, as are the other ordered compares).
    fn lt(self, c: f64) -> Self::Mask;
    /// `x <= c`.
    fn le(self, c: f64) -> Self::Mask;
    /// `x > c`.
    fn gt(self, c: f64) -> Self::Mask;
    /// `x >= c`.
    fn ge(self, c: f64) -> Self::Mask;
    /// The mask as bits `0..WIDTH`.
    fn mask_bits(m: Self::Mask) -> u64;
    /// `a` where `m` is set, `b` elsewhere.
    fn blend(m: Self::Mask, a: Self, b: Self) -> Self;
    /// `a()` where `m` is set, `b()` elsewhere, for `#[inline(always)]`
    /// closures. The `f64` lane runs one closure; wider lanes run each
    /// exactly once and blend.
    fn select(m: Self::Mask, a: impl FnOnce() -> Self, b: impl FnOnce() -> Self) -> Self;

    /// `x` rounded to the nearest integer, ties to even, for `|x| < 2^31`.
    fn round_even(self) -> Self::Int;
    /// `x` truncated toward zero, for `0 <= x < 2^31`.
    fn trunc_pos(self) -> Self::Int;
    /// `floor(x)` as a double, exact for `0 <= x < 2^53`.
    fn floor_pos(self) -> Self;
    /// `x == trunc(x)`, exact for `0 <= x < 2^53` (callers mask other
    /// values out with a range test).
    fn is_integral(self) -> Self::Mask;
    /// The unbiased exponent of a positive normal `x`, as a double.
    fn exponent(self) -> Self;
    /// The significand of `x` scaled into `[1, 2)` (exponent bits
    /// replaced by the bias).
    fn significand(self) -> Self;

    /// The integer lane as doubles (exact).
    fn int_f64(i: Self::Int) -> Self;
    /// `i & m`.
    fn int_and(i: Self::Int, m: i32) -> Self::Int;
    /// `i >> S`, arithmetic (floor division by `2^S`).
    fn int_sra<const S: i32>(i: Self::Int) -> Self::Int;
    /// `i + c`.
    fn int_add(i: Self::Int, c: i32) -> Self::Int;
    /// `c - i`.
    fn int_rsub(c: i32, i: Self::Int) -> Self::Int;
    /// `i == c`.
    fn int_eq(i: Self::Int, c: i32) -> Self::Mask;
    /// `2^i` by bit construction, for `-1022 <= i <= 1023`.
    fn pow2i(i: Self::Int) -> Self;
    /// The hi words of entries `i` of `t`.
    fn gather_hi(t: &Packed, i: Self::Int) -> Self;
    /// The `(hi, lo)` pairs of entries `i` of `t`.
    fn gather_packed(t: &Packed, i: Self::Int) -> (Self, Self);
}

/// `v.round_ties_even() as i64` for `|v| <= 2^51`, without a libm call.
///
/// `f64::round_ties_even` lowers to a call into the software `rint` on
/// the baseline x86-64 target (no SSE4.1 `roundsd`). Adding `1.5·2^52`
/// moves `v` into the binade `[2^52, 2^53]`, where one ulp is 1, so the
/// add itself rounds `v` to the nearest integer, ties to even (the
/// default rounding mode, which Rust never changes); inside that binade
/// the bit pattern is the value plus a fixed offset, so subtracting the
/// constant's bits leaves the integer. Every reduction in this crate
/// feeds it at most ~2^17 (`|k| <= 64645` in the dd `exp` kernel).
#[inline(always)]
pub(crate) fn round_even_i64(v: f64) -> i64 {
    const SHIFT: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
    (v + SHIFT).to_bits() as i64 - SHIFT.to_bits() as i64
}

impl F64Lane for f64 {
    const WIDTH: usize = 1;
    type Mask = bool;
    type Int = i64;
    type Isa = ();

    #[inline(always)]
    fn enter<R>((): (), f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn load((): (), y: &[f64; LANES], g: usize) -> f64 {
        y[g % LANES]
    }

    #[inline(always)]
    fn store(self, y: &mut [f64; LANES], g: usize) {
        y[g % LANES] = self;
    }

    #[inline(always)]
    fn splat(self, v: f64) -> f64 {
        v
    }

    #[inline(always)]
    fn abs(self) -> f64 {
        f64::abs(self)
    }

    #[inline(always)]
    fn lt(self, c: f64) -> bool {
        self < c
    }

    #[inline(always)]
    fn le(self, c: f64) -> bool {
        self <= c
    }

    #[inline(always)]
    fn gt(self, c: f64) -> bool {
        self > c
    }

    #[inline(always)]
    fn ge(self, c: f64) -> bool {
        self >= c
    }

    #[inline(always)]
    fn mask_bits(m: bool) -> u64 {
        u64::from(m)
    }

    #[inline(always)]
    fn blend(m: bool, a: f64, b: f64) -> f64 {
        if m {
            a
        } else {
            b
        }
    }

    #[inline(always)]
    fn select(m: bool, a: impl FnOnce() -> f64, b: impl FnOnce() -> f64) -> f64 {
        if m {
            a()
        } else {
            b()
        }
    }

    #[inline(always)]
    fn round_even(self) -> i64 {
        round_even_i64(self)
    }

    #[inline(always)]
    fn trunc_pos(self) -> i64 {
        self as i64
    }

    /// Two converts: `f64::floor` lowers to a libm call on the baseline
    /// x86-64 target.
    #[inline(always)]
    fn floor_pos(self) -> f64 {
        (self as u64) as f64
    }

    #[inline(always)]
    fn is_integral(self) -> bool {
        self == (self as u64) as f64
    }

    #[inline(always)]
    fn exponent(self) -> f64 {
        (((self.to_bits() >> 52) & 0x7ff) as i64 - 1023) as f64
    }

    #[inline(always)]
    fn significand(self) -> f64 {
        f64::from_bits((self.to_bits() & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000)
    }

    #[inline(always)]
    fn int_f64(i: i64) -> f64 {
        i as f64
    }

    #[inline(always)]
    fn int_and(i: i64, m: i32) -> i64 {
        i & i64::from(m)
    }

    #[inline(always)]
    fn int_sra<const S: i32>(i: i64) -> i64 {
        i >> S
    }

    #[inline(always)]
    fn int_add(i: i64, c: i32) -> i64 {
        i + i64::from(c)
    }

    #[inline(always)]
    fn int_rsub(c: i32, i: i64) -> i64 {
        i64::from(c) - i
    }

    #[inline(always)]
    fn int_eq(i: i64, c: i32) -> bool {
        i == i64::from(c)
    }

    #[inline(always)]
    fn pow2i(i: i64) -> f64 {
        f64::from_bits(((i + 1023) as u64) << 52)
    }

    #[inline(always)]
    fn gather_hi(t: &Packed, i: i64) -> f64 {
        t.hi(i as usize)
    }

    #[inline(always)]
    fn gather_packed(t: &Packed, i: i64) -> (f64, f64) {
        t.entry(i as usize)
    }
}

/// The AVX2 lane: four f64 lanes in one `__m256d`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod avx2 {
    use super::{F64Lane, LANES};
    use crate::tables::Packed;
    use crate::tables_codec as codec;
    use core::arch::x86_64::*;
    use core::ops::{Add, BitAnd, BitOr, BitXor, Div, Mul, Neg, Not, Sub};

    /// Proof that the CPU supports AVX2: only [`Avx2Isa::detect`]
    /// makes one.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Avx2Isa(());

    impl Avx2Isa {
        /// `Some` on a CPU with AVX2 (std caches the detection).
        #[inline]
        pub(crate) fn detect() -> Option<Avx2Isa> {
            std::arch::is_x86_feature_detected!("avx2").then_some(Avx2Isa(()))
        }
    }

    /// Four f64 lanes. A value exists only on an AVX2 CPU: its
    /// constructors take an [`Avx2Isa`] or another lane value, and
    /// [`Avx2::from_raw`] is `unsafe`. That is what makes the `unsafe`
    /// intrinsic calls in the methods sound.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Avx2(__m256d);

    /// Four lane booleans (all-ones / all-zeros per 64-bit lane).
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Avx2Mask(__m256d);

    /// Four i32 lanes.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Avx2Int(__m128i);

    impl Avx2 {
        /// Wraps raw lanes.
        ///
        /// # Safety
        /// The CPU must support AVX2.
        #[inline(always)]
        pub(crate) unsafe fn from_raw(v: __m256d) -> Avx2 {
            Avx2(v)
        }

        /// The raw lanes.
        #[inline(always)]
        pub(crate) fn raw(self) -> __m256d {
            self.0
        }
    }

    /// Runs `f` as an AVX2 function: every instantiation is one stage of
    /// the batched driver, and `ci.sh` checks that none contains a call.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_stage<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    // SAFETY (every `unsafe` block below): an `Avx2`, `Avx2Mask`,
    // `Avx2Int` or `Avx2Isa` value exists only on an AVX2 CPU, and each
    // method takes one; pointer accesses stay inside their arrays (see
    // each method).

    macro_rules! binop {
        ($tr:ident, $f:ident, $intr:ident) => {
            impl $tr for Avx2 {
                type Output = Avx2;
                #[inline(always)]
                fn $f(self, o: Avx2) -> Avx2 {
                    unsafe { Avx2($intr(self.0, o.0)) }
                }
            }

            impl $tr<f64> for Avx2 {
                type Output = Avx2;
                #[inline(always)]
                fn $f(self, o: f64) -> Avx2 {
                    unsafe { Avx2($intr(self.0, _mm256_set1_pd(o))) }
                }
            }
        };
    }

    binop!(Add, add, _mm256_add_pd);
    binop!(Sub, sub, _mm256_sub_pd);
    binop!(Mul, mul, _mm256_mul_pd);
    binop!(Div, div, _mm256_div_pd);

    impl Neg for Avx2 {
        type Output = Avx2;
        /// A sign flip, like scalar negation.
        #[inline(always)]
        fn neg(self) -> Avx2 {
            unsafe { Avx2(_mm256_xor_pd(self.0, _mm256_set1_pd(-0.0))) }
        }
    }

    macro_rules! maskop {
        ($tr:ident, $f:ident, $intr:ident) => {
            impl $tr for Avx2Mask {
                type Output = Avx2Mask;
                #[inline(always)]
                fn $f(self, o: Avx2Mask) -> Avx2Mask {
                    unsafe { Avx2Mask($intr(self.0, o.0)) }
                }
            }
        };
    }

    maskop!(BitAnd, bitand, _mm256_and_pd);
    maskop!(BitOr, bitor, _mm256_or_pd);
    maskop!(BitXor, bitxor, _mm256_xor_pd);

    impl Not for Avx2Mask {
        type Output = Avx2Mask;
        #[inline(always)]
        fn not(self) -> Avx2Mask {
            unsafe { Avx2Mask(_mm256_xor_pd(self.0, _mm256_castsi256_pd(_mm256_set1_epi64x(-1)))) }
        }
    }

    /// Byte offsets `15·i` of entries `i` of `t`, the indices clamped into
    /// the table (negative ones read as large unsigned ones), so every
    /// gather stays inside its table whatever the lanes hold. In-domain
    /// lanes never reach the clamp.
    #[inline(always)]
    fn byte_offsets(t: &Packed, i: Avx2Int) -> __m128i {
        let last = (t.bytes.len() / codec::PACKED_STRIDE) as i32 - 1;
        // SAFETY: `i` exists only on an AVX2 CPU.
        unsafe {
            let idx = _mm_min_epu32(i.0, _mm_set1_epi32(last));
            _mm_sub_epi32(_mm_slli_epi32::<4>(idx), idx) // 16·idx - idx
        }
    }

    /// Vector twin of `tables_codec::decode_hi`.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline(always)]
    unsafe fn decode_hi(w: __m256i, base: u64) -> __m256d {
        let mant = _mm256_and_si256(w, _mm256_set1_epi64x(codec::MANT52_MASK as i64));
        let code = _mm256_srli_epi64::<52>(w); // word is pre-masked to 56 bits
        let exp = _mm256_slli_epi64::<52>(_mm256_add_epi64(code, _mm256_set1_epi64x(base as i64 - 1)));
        let bits = _mm256_or_si256(exp, mant);
        let zero = _mm256_cmpeq_epi64(code, _mm256_setzero_si256());
        _mm256_castsi256_pd(_mm256_andnot_si256(zero, bits))
    }

    /// Vector twin of `tables_codec::decode_lo` (sign in bit 56).
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline(always)]
    unsafe fn decode_lo(w: __m256i, base: u64) -> __m256d {
        let mant = _mm256_and_si256(w, _mm256_set1_epi64x(codec::MANT52_MASK as i64));
        let code = _mm256_and_si256(_mm256_srli_epi64::<52>(w), _mm256_set1_epi64x(0xF));
        let sign = _mm256_slli_epi64::<7>(_mm256_and_si256(w, _mm256_set1_epi64x(1i64 << 56)));
        let exp = _mm256_slli_epi64::<52>(_mm256_add_epi64(code, _mm256_set1_epi64x(base as i64 - 1)));
        let bits = _mm256_or_si256(sign, _mm256_or_si256(exp, mant));
        let zero = _mm256_cmpeq_epi64(code, _mm256_setzero_si256());
        _mm256_castsi256_pd(_mm256_andnot_si256(zero, bits))
    }

    impl F64Lane for Avx2 {
        const WIDTH: usize = 4;
        type Mask = Avx2Mask;
        type Int = Avx2Int;
        type Isa = Avx2Isa;

        #[inline(always)]
        fn enter<R>(_: Avx2Isa, f: impl FnOnce() -> R) -> R {
            unsafe { avx2_stage(f) }
        }

        #[inline(always)]
        fn load(_: Avx2Isa, y: &[f64; LANES], g: usize) -> Avx2 {
            // In bounds: 4·(g mod 16) + 4 <= 64.
            unsafe { Avx2(_mm256_loadu_pd(y.as_ptr().add(4 * (g % (LANES / 4))))) }
        }

        #[inline(always)]
        fn store(self, y: &mut [f64; LANES], g: usize) {
            unsafe { _mm256_storeu_pd(y.as_mut_ptr().add(4 * (g % (LANES / 4))), self.0) }
        }

        #[inline(always)]
        fn splat(self, v: f64) -> Avx2 {
            unsafe { Avx2(_mm256_set1_pd(v)) }
        }

        #[inline(always)]
        fn abs(self) -> Avx2 {
            unsafe { Avx2(_mm256_andnot_pd(_mm256_set1_pd(-0.0), self.0)) }
        }

        #[inline(always)]
        fn lt(self, c: f64) -> Avx2Mask {
            unsafe { Avx2Mask(_mm256_cmp_pd::<_CMP_LT_OQ>(self.0, _mm256_set1_pd(c))) }
        }

        #[inline(always)]
        fn le(self, c: f64) -> Avx2Mask {
            unsafe { Avx2Mask(_mm256_cmp_pd::<_CMP_LE_OQ>(self.0, _mm256_set1_pd(c))) }
        }

        #[inline(always)]
        fn gt(self, c: f64) -> Avx2Mask {
            unsafe { Avx2Mask(_mm256_cmp_pd::<_CMP_GT_OQ>(self.0, _mm256_set1_pd(c))) }
        }

        #[inline(always)]
        fn ge(self, c: f64) -> Avx2Mask {
            unsafe { Avx2Mask(_mm256_cmp_pd::<_CMP_GE_OQ>(self.0, _mm256_set1_pd(c))) }
        }

        #[inline(always)]
        fn mask_bits(m: Avx2Mask) -> u64 {
            unsafe { u64::from(_mm256_movemask_pd(m.0) as u32 & 0xF) }
        }

        #[inline(always)]
        fn blend(m: Avx2Mask, a: Avx2, b: Avx2) -> Avx2 {
            unsafe { Avx2(_mm256_blendv_pd(b.0, a.0, m.0)) }
        }

        #[inline(always)]
        fn select(m: Avx2Mask, a: impl FnOnce() -> Avx2, b: impl FnOnce() -> Avx2) -> Avx2 {
            // Each closure runs exactly once: a variant that skipped a
            // side on a uniform mask called it from two sites, and LLVM
            // outlined it.
            Avx2::blend(m, a(), b())
        }

        /// `cvtpd_epi32` rounds with the MXCSR mode, nearest-even.
        #[inline(always)]
        fn round_even(self) -> Avx2Int {
            unsafe { Avx2Int(_mm256_cvtpd_epi32(self.0)) }
        }

        #[inline(always)]
        fn trunc_pos(self) -> Avx2Int {
            unsafe { Avx2Int(_mm256_cvttpd_epi32(self.0)) }
        }

        #[inline(always)]
        fn floor_pos(self) -> Avx2 {
            const FLOOR: i32 = _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC;
            unsafe { Avx2(_mm256_round_pd::<FLOOR>(self.0)) }
        }

        #[inline(always)]
        fn is_integral(self) -> Avx2Mask {
            const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
            unsafe { Avx2Mask(_mm256_cmp_pd::<_CMP_EQ_OQ>(self.0, _mm256_round_pd::<TRUNC>(self.0))) }
        }

        /// The biased exponent as an exact small-integer double via the
        /// `2^52` magic bits, with the bias folded into the subtrahend.
        #[inline(always)]
        fn exponent(self) -> Avx2 {
            unsafe {
                let be = _mm256_srli_epi64::<52>(_mm256_castpd_si256(self.0)); // x > 0
                let magic = _mm256_set1_epi64x(0x4330_0000_0000_0000); // 2^52
                Avx2(_mm256_sub_pd(
                    _mm256_castsi256_pd(_mm256_or_si256(be, magic)),
                    _mm256_set1_pd(4_503_599_627_370_496.0 + 1023.0),
                ))
            }
        }

        #[inline(always)]
        fn significand(self) -> Avx2 {
            unsafe {
                Avx2(_mm256_castsi256_pd(_mm256_or_si256(
                    _mm256_and_si256(
                        _mm256_castpd_si256(self.0),
                        _mm256_set1_epi64x(0x000F_FFFF_FFFF_FFFF),
                    ),
                    _mm256_set1_epi64x(0x3FF0_0000_0000_0000),
                )))
            }
        }

        #[inline(always)]
        fn int_f64(i: Avx2Int) -> Avx2 {
            unsafe { Avx2(_mm256_cvtepi32_pd(i.0)) }
        }

        #[inline(always)]
        fn int_and(i: Avx2Int, m: i32) -> Avx2Int {
            unsafe { Avx2Int(_mm_and_si128(i.0, _mm_set1_epi32(m))) }
        }

        #[inline(always)]
        fn int_sra<const S: i32>(i: Avx2Int) -> Avx2Int {
            unsafe { Avx2Int(_mm_srai_epi32::<S>(i.0)) }
        }

        #[inline(always)]
        fn int_add(i: Avx2Int, c: i32) -> Avx2Int {
            unsafe { Avx2Int(_mm_add_epi32(i.0, _mm_set1_epi32(c))) }
        }

        #[inline(always)]
        fn int_rsub(c: i32, i: Avx2Int) -> Avx2Int {
            unsafe { Avx2Int(_mm_sub_epi32(_mm_set1_epi32(c), i.0)) }
        }

        #[inline(always)]
        fn int_eq(i: Avx2Int, c: i32) -> Avx2Mask {
            unsafe {
                let eq = _mm_cmpeq_epi32(i.0, _mm_set1_epi32(c));
                Avx2Mask(_mm256_castsi256_pd(_mm256_cvtepi32_epi64(eq)))
            }
        }

        #[inline(always)]
        fn pow2i(i: Avx2Int) -> Avx2 {
            unsafe {
                let wide = _mm256_cvtepi32_epi64(i.0);
                let bits = _mm256_slli_epi64::<52>(_mm256_add_epi64(wide, _mm256_set1_epi64x(1023)));
                Avx2(_mm256_castsi256_pd(bits))
            }
        }

        /// One scale-1 `i32gather_epi64` at byte offsets `15n`, masked to
        /// the hi word, then the hi decode.
        #[inline(always)]
        fn gather_hi(t: &Packed, i: Avx2Int) -> Avx2 {
            unsafe {
                let off = byte_offsets(t, i);
                let w0 = _mm256_i32gather_epi64::<1>(t.bytes.as_ptr().cast::<i64>(), off);
                let hw = _mm256_and_si256(w0, _mm256_set1_epi64x(codec::HI_WORD_MASK as i64));
                Avx2(decode_hi(hw, t.hi_base))
            }
        }

        /// Two scale-1 gathers at byte offsets `15n` and `15n + 7`. The
        /// last entry's lo load ends exactly at the table's final byte, so
        /// every clamped index gathers in bounds.
        #[inline(always)]
        fn gather_packed(t: &Packed, i: Avx2Int) -> (Avx2, Avx2) {
            unsafe {
                let base = t.bytes.as_ptr().cast::<i64>();
                let off = byte_offsets(t, i);
                let w0 = _mm256_i32gather_epi64::<1>(base, off);
                let w1 = _mm256_i32gather_epi64::<1>(base, _mm_add_epi32(off, _mm_set1_epi32(7)));
                let hw = _mm256_and_si256(w0, _mm256_set1_epi64x(codec::HI_WORD_MASK as i64));
                let lw = _mm256_and_si256(w1, _mm256_set1_epi64x(codec::LO_WORD_MASK as i64));
                (Avx2(decode_hi(hw, t.hi_base)), Avx2(decode_lo(lw, t.lo_base)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlibm_fp::rng::XorShift64;

    #[test]
    fn round_even_i64_matches_round_ties_even() {
        let check = |v: f64| {
            assert_eq!(
                round_even_i64(v),
                v.round_ties_even() as i64,
                "v = {v:e} ({:#x})",
                v.to_bits()
            );
        };
        // Every tie in ±2^17 (the dd exp kernel's |k| <= 64645 and
        // beyond), with the f64 neighbours on both sides.
        for n in -(1i64 << 17)..(1i64 << 17) {
            let tie = n as f64 + 0.5;
            check(tie.next_down());
            check(tie);
            check(tie.next_up());
        }
        for v in [0.0, -0.0, 0.5, -0.5, 1.5, -1.5] {
            check(v);
        }
        // The edge of the helper's stated range.
        for v in [(1u64 << 51) as f64 - 1.0, -((1u64 << 51) as f64 - 1.0)] {
            check(v.next_down());
            check(v);
            check(v.next_up());
        }
        // The log reduction's index (z - 1)·128 in [0, 128]: a dense grid
        // (every 1/4096, ties included) and a stride over the mantissas.
        for i in 0..=(128u32 << 12) {
            check(f64::from(i) / 4096.0);
        }
        for m in (0..1u64 << 52).step_by(0x0100_0000_011b) {
            let z = f64::from_bits(m | 0x3FF0_0000_0000_0000);
            check((z - 1.0) * 128.0);
        }
        let mut rng = XorShift64::new(0x2_0E7E);
        for _ in 0..1_000_000 {
            check(rng.uniform_f64(-1_048_576.0, 1_048_576.0));
        }
    }
}
