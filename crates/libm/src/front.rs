//! One special-case front end per function, for every output format.
//!
//! In the paper's runtime a function is a special-case filter, then
//! range reduction, table, polynomial and one cast. This module is the
//! filter, written once per function and generic over the output
//! format, the way RLIBM-ALL serves several representations from one
//! implementation. A function's front end ([`Front`], implemented by its
//! kernel type in [`crate::kernel`]) has two halves:
//!
//! * `dom`, the inputs that reach a kernel, as a mask over f64 lanes
//!   (NaN lanes fail it), and
//! * `special`, the result of every other input: NaN or NaR, domain
//!   errors, signed zeros, overflow or saturation, underflow.
//!
//! Four paths read that one definition:
//!
//! 1. the fast scalar entry ([`crate::registry`]'s `entry`) through
//!    `fast_front`: `fast_dom` runs the fast kernel, anything else is
//!    `fast_special` (the posit32 logarithms decide on the bit pattern,
//!    [`Format::log_front`]);
//! 2. the dd reference ([`reference`]): `dom` runs the dd kernel and
//!    rounds with [`round_dd`], anything else is `special`;
//! 3. the 24 posit16, binary16 and bfloat16 functions, which are the dd
//!    reference at their format;
//! 4. the batched driver ([`crate::slice`]), whose per-lane mask on the
//!    f64 or AVX2 lane is `fast_dom`: the lanes the fast entry sends to
//!    the kernel.
//!
//! # Where the thresholds live
//!
//! The per-format cuts are the consts of [`Format`], one impl per
//! format; `sinpi` and `cospi` are f32-only and keep theirs below as
//! f32 code. Each cut is read by the `dom` mask and, where `special`
//! must tell overflow from underflow, by `special`. Results beyond a
//! format's range are its rounding of a sentinel: `f64::MAX` (infinity,
//! or maxpos since posits saturate), a tiny positive (zero, or minpos),
//! `-inf` (`ln 0`: `-inf`, or NaR) and NaN (NaN or NaR). Each branch
//! rounds its own constant, so the rounding folds to the result: a
//! rounding of a runtime choice among the sentinels would run the posit
//! encoder on every special input.
//!
//! # Fast-only shortcuts
//!
//! Three tiny-argument shortcuts run in the fast entries only: f32
//! `sinh` returns `x` below `2^-12`, f32 `cosh` returns 1 below `2^-13`
//! and posit32 `sinh` returns `x` below `2^-13` ([`Format::SINH_TINY`],
//! [`Format::COSH_TINY`]). They are correct roundings, but the dd
//! reference evaluates its kernel there instead, so the certification
//! sweep's fast == dd comparison checks every shortcut result on all
//! 2^32 inputs. The 16-bit functions have no fast path and so no
//! shortcut.

use rlibm_fp::{BFloat16, Half, Representation};
use rlibm_posit::{Posit16, Posit32};

use crate::dd::{two_prod, Dd};
use crate::kernel::{Cosh, Cospi, Exp, Exp10, Exp2, Kernel, Ln, Log10, Log2, Sinh, Sinpi};
use crate::lane::F64Lane;
use crate::round::round_dd;
use crate::tables as t;

/// `ln 2^120`: posit32 results beyond `e^LN_MAXPOS` saturate at
/// `maxpos = 2^120`.
pub(crate) const LN_MAXPOS: f64 = 83.17766166719343;
/// `log10 2^120`.
pub(crate) const LOG10_MAXPOS: f64 = 36.123599478912376;
/// `ln 2^28`, posit16's `maxpos`.
const LN_MAXPOS16: f64 = 19.408121055678468;

/// A positive double below every format's smallest positive value: its
/// rounding is the format's underflow result (zero, or minpos).
const TINY: f64 = f64::MIN_POSITIVE;

/// An output format and its front-end cuts. Every cut is compared
/// against the input widened to f64, so a cut only needs to select the
/// right inputs of its own format.
pub(crate) trait Format: Representation {
    /// `exp`'s kernel domain `[lo, hi]`: below `lo` the result
    /// underflows, above `hi` it overflows (or saturates).
    const EXP: [f64; 2];
    /// `exp2`'s kernel domain.
    const EXP2: [f64; 2];
    /// `exp10`'s kernel domain.
    const EXP10: [f64; 2];
    /// `sinh` and `cosh` overflow (or saturate) above this `|x|`.
    const HYPER: f64;
    /// Fast entries only: below this `|x|` the fast `sinh` returns `x`
    /// (0: no shortcut).
    const SINH_TINY: f64 = 0.0;
    /// Fast entries only: below this `|x|` the fast `cosh` returns 1.
    const COSH_TINY: f64 = 0.0;

    /// The logarithms' [`Front::fast_front`]: the widened input when it is
    /// positive and finite, else [`log_special`].
    #[inline(always)]
    fn log_front(x: Self) -> Result<f64, Self> {
        let xd = x.to_f64();
        if xd > 0.0 && xd < f64::INFINITY {
            Ok(xd)
        } else {
            Err(log_special(x, xd))
        }
    }
}

impl Format for f32 {
    // exp(89) > 2^128 and exp(-106) < 2^-150.
    const EXP: [f64; 2] = [-106.0, 89.0];
    // 127.99999237060547 is the f32 below 128: every f32 >= 128 overflows.
    const EXP2: [f64; 2] = [-151.0, 127.999_992_370_605_47];
    // 10^38.6 > 2^128, 10^-45.5 < 2^-150; the cut is the f32 38.6.
    const EXP10: [f64; 2] = [-45.5, 38.6f32 as f64];
    // sinh(90) ~ e^90/2 > 2^128.
    const HYPER: f64 = 90.0;
    // sinh(x) - x = x^3/6 + ... < (2/3)·halfulp(x) for every f32 below
    // 2^-12 (x = m·2^e with e <= -13: x^3/6 = m^3·2^(3e)/6 against
    // halfulp(x) = 2^(e-25) for normals, larger relatively for
    // subnormals), so sinh(x) rounds to x.
    const SINH_TINY: f64 = 1.0 / 4096.0;
    // cosh(x) - 1 = x^2/2 + ... < 2^-27, far below halfulp(1) = 2^-24.
    const COSH_TINY: f64 = 1.0 / 8192.0;
}

impl Format for Posit32 {
    const EXP: [f64; 2] = [-(LN_MAXPOS + 0.5), LN_MAXPOS + 0.5];
    const EXP2: [f64; 2] = [-120.5, 120.5];
    const EXP10: [f64; 2] = [-(LOG10_MAXPOS + 0.5), LOG10_MAXPOS + 0.5];
    const HYPER: f64 = LN_MAXPOS + 1.5;
    // sinh(x) - x = x^3/6 + ... is below half the posit quantum (at
    // most 24 fraction bits out here), so sinh(x) rounds to x.
    const SINH_TINY: f64 = 1.0 / 8192.0;

    // Posit patterns order like i32: the positives are the patterns
    // above zero, and the log of zero, NaR or a negative is NaR. One
    // integer compare, before the input is widened.
    #[inline(always)]
    fn log_front(x: Self) -> Result<f64, Self> {
        if x.to_bits() as i32 > 0 {
            Ok(x.to_f64())
        } else {
            Err(Posit32::NAR)
        }
    }
}

impl Format for Posit16 {
    const EXP: [f64; 2] = [-(LN_MAXPOS16 + 0.5), LN_MAXPOS16 + 0.5];
    const EXP2: [f64; 2] = [-28.5, 28.5];
    const EXP10: [f64; 2] = [-8.93, 8.93];
    const HYPER: f64 = LN_MAXPOS16 + 1.5;
}

impl Format for Half {
    // exp(11.1) > 65520 (the overflow boundary), exp(-17.7) < 2^-25 (half
    // the smallest subnormal).
    const EXP: [f64; 2] = [-17.7, 11.1];
    // 15.9921875 is the binary16 below 16.
    const EXP2: [f64; 2] = [-25.5, 15.992_187_5];
    const EXP10: [f64; 2] = [-7.7, 4.82];
    const HYPER: f64 = 11.8;
}

impl Format for BFloat16 {
    // exp(-94) < 2^-134.5, below half the smallest subnormal (2^-133).
    const EXP: [f64; 2] = [-94.0, 89.0];
    // 127.5 is the bfloat16 below 128.
    const EXP2: [f64; 2] = [-135.0, 127.5];
    const EXP10: [f64; 2] = [-40.6, 38.6];
    const HYPER: f64 = 90.0;
}

/// One function's special-case front end for format `T`.
pub(crate) trait Front<T: Format> {
    /// The lanes of the widened input the dd reference sends to its dd
    /// kernel.
    fn dom<V: F64Lane>(x: V) -> V::Mask;

    /// The result of an input outside `dom` (`xd` is `x` widened).
    fn special(x: T, xd: f64) -> T;

    /// The lanes the fast entry and the batched driver send to the
    /// kernel: `dom` less the fast-only shortcut.
    #[inline(always)]
    fn fast_dom<V: F64Lane>(x: V) -> V::Mask {
        Self::dom(x)
    }

    /// The fast entry's result outside `fast_dom`.
    #[inline(always)]
    fn fast_special(x: T, xd: f64) -> T {
        Self::special(x, xd)
    }

    /// The fast scalar entry's front end: `Ok` with `x` widened for the
    /// inputs `fast_dom` sends to the kernel, `Err` with the result of
    /// the rest.
    #[inline(always)]
    fn fast_front(x: T) -> Result<f64, T> {
        let xd = x.to_f64();
        if Self::fast_dom(xd) {
            Ok(xd)
        } else {
            Err(Self::fast_special(x, xd))
        }
    }
}

/// The dd reference of function `K` in format `T`: the front end, then
/// the dd kernel with one round-to-odd composed rounding.
pub(crate) fn reference<T: Format, K: Kernel + Front<T>>(x: T) -> T {
    let xd = x.to_f64();
    if K::dom(xd) {
        round_dd(K::dd(xd))
    } else {
        K::special(x, xd)
    }
}

/// The logarithms' result outside their domain: NaN and negatives give
/// NaN, zeros `-inf`, `+inf` itself (posits: NaR for all but positives).
#[inline(always)]
fn log_special<T: Format>(x: T, xd: f64) -> T {
    if xd > 0.0 {
        x
    } else if xd == 0.0 {
        T::round_from_f64(f64::NEG_INFINITY)
    } else {
        T::round_from_f64(f64::NAN)
    }
}

macro_rules! log_front {
    ($($k:ty),*) => {$(
        /// Positive finite inputs; the rest is [`log_special`].
        impl<T: Format> Front<T> for $k {
            #[inline(always)]
            fn dom<V: F64Lane>(x: V) -> V::Mask {
                x.gt(0.0) & x.lt(f64::INFINITY)
            }

            #[inline(always)]
            fn special(x: T, xd: f64) -> T {
                log_special(x, xd)
            }

            #[inline(always)]
            fn fast_front(x: T) -> Result<f64, T> {
                T::log_front(x)
            }
        }
    )*};
}

log_front!(Ln, Log2, Log10);

macro_rules! exp_front {
    ($($k:ty => $cut:ident),*) => {$(
        /// `[lo, hi]` of the format's cut; above it the result
        /// overflows, below it underflows.
        impl<T: Format> Front<T> for $k {
            #[inline(always)]
            fn dom<V: F64Lane>(x: V) -> V::Mask {
                let [lo, hi] = T::$cut;
                x.ge(lo) & x.le(hi)
            }

            #[inline(always)]
            fn special(_: T, xd: f64) -> T {
                let [lo, hi] = T::$cut;
                if xd > hi {
                    T::round_from_f64(f64::MAX)
                } else if xd < lo {
                    T::round_from_f64(TINY)
                } else {
                    T::round_from_f64(f64::NAN)
                }
            }
        }
    )*};
}

exp_front!(Exp => EXP, Exp2 => EXP2, Exp10 => EXP10);

/// Nonzero `|x| <= HYPER`; zeros keep their sign, larger `|x|` overflow
/// with the sign of `x`.
impl<T: Format> Front<T> for Sinh {
    #[inline(always)]
    fn dom<V: F64Lane>(x: V) -> V::Mask {
        let a = x.abs();
        a.gt(0.0) & a.le(T::HYPER)
    }

    #[inline(always)]
    fn special(x: T, xd: f64) -> T {
        if xd == 0.0 {
            x
        } else if xd > 0.0 {
            T::round_from_f64(f64::MAX)
        } else if xd < 0.0 {
            T::round_from_f64(-f64::MAX)
        } else {
            T::round_from_f64(f64::NAN)
        }
    }

    #[inline(always)]
    fn fast_dom<V: F64Lane>(x: V) -> V::Mask {
        <Self as Front<T>>::dom(x) & x.abs().ge(T::SINH_TINY)
    }

    #[inline(always)]
    fn fast_special(x: T, xd: f64) -> T {
        if xd.abs() < T::SINH_TINY {
            x
        } else {
            Self::special(x, xd)
        }
    }
}

/// `|x| <= HYPER`; larger `|x|` overflow.
impl<T: Format> Front<T> for Cosh {
    #[inline(always)]
    fn dom<V: F64Lane>(x: V) -> V::Mask {
        x.abs().le(T::HYPER)
    }

    #[inline(always)]
    fn special(_: T, xd: f64) -> T {
        if xd.is_nan() {
            T::round_from_f64(f64::NAN)
        } else {
            T::round_from_f64(f64::MAX)
        }
    }

    #[inline(always)]
    fn fast_dom<V: F64Lane>(x: V) -> V::Mask {
        <Self as Front<T>>::dom(x) & x.abs().ge(T::COSH_TINY)
    }

    #[inline(always)]
    fn fast_special(x: T, xd: f64) -> T {
        if xd.abs() < T::COSH_TINY {
            T::round_from_f64(1.0)
        } else {
            Self::special(x, xd)
        }
    }
}

/// Every f32 of magnitude at least `2^23` is an integer.
const SINPI_INTEGRAL: f64 = 8_388_608.0;
/// Below `2^-36`, `sinpi(x)` is `pi·x` to well below the rounding
/// interval (the paper's first special class, `|x| < 1.17e-7`, and
/// smaller).
const SINPI_TINY: f64 = 1.0 / 68_719_476_736.0;
/// Every f32 of magnitude at least `2^24` is an even integer.
const COSPI_EVEN: f64 = 16_777_216.0;
/// Below this `|x|`, `cospi(x)` rounds to 1 (the paper's special class
/// 1; the kernel also gets it right, the early exit matches the paper).
const COSPI_ONE: f64 = 7.77e-5;

/// Non-integer `2^-36 <= |x| < 2^23`. Zeros keep their sign, integers
/// give `+0`, and tiny inputs round `pi·x` in double-double.
impl Front<f32> for Sinpi {
    #[inline(always)]
    fn dom<V: F64Lane>(x: V) -> V::Mask {
        let a = x.abs();
        a.lt(SINPI_INTEGRAL) & a.ge(SINPI_TINY) & !a.is_integral()
    }

    #[inline(always)]
    fn special(x: f32, xd: f64) -> f32 {
        if !xd.is_finite() {
            f32::NAN
        } else if xd == 0.0 {
            x
        } else if xd.abs() < SINPI_TINY {
            let (p, e) = two_prod(t::PI_HI, xd);
            round_dd(Dd::new(p, e + t::PI_LO * xd))
        } else {
            0.0
        }
    }
}

/// `COSPI_ONE <= |x| < 2^24` with `2|x|` non-integer: an integral `2|x|`
/// catches integers (`±1`) and half-integers (exact zeros) alike.
impl Front<f32> for Cospi {
    #[inline(always)]
    fn dom<V: F64Lane>(x: V) -> V::Mask {
        let a = x.abs();
        a.ge(COSPI_ONE) & a.lt(COSPI_EVEN) & !(a * 2.0).is_integral()
    }

    #[inline(always)]
    fn special(_: f32, xd: f64) -> f32 {
        if !xd.is_finite() {
            return f32::NAN;
        }
        let a = xd.abs();
        if !(COSPI_ONE..COSPI_EVEN).contains(&a) {
            return 1.0;
        }
        // `2a < 2^25` is an exact integer here, so an integer cast reads
        // it without a `trunc` libm call.
        let h = (a + a) as u64;
        if h & 1 == 1 {
            0.0 // half-integers are exact zeros
        } else if h & 2 == 0 {
            1.0 // even integers
        } else {
            -1.0 // odd integers
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sentinels round to each format's out-of-range results.
    #[test]
    fn sentinels_round_to_the_special_results() {
        assert_eq!(f32::round_from_f64(f64::MAX), f32::INFINITY);
        assert_eq!(f32::round_from_f64(-f64::MAX), f32::NEG_INFINITY);
        assert_eq!(f32::round_from_f64(TINY).to_bits(), 0);
        assert_eq!(f32::round_from_f64(f64::NAN).to_bits(), f32::NAN.to_bits());
        assert_eq!(Posit32::round_from_f64(f64::MAX), Posit32::MAXPOS);
        assert_eq!(Posit32::round_from_f64(-f64::MAX), -Posit32::MAXPOS);
        assert_eq!(Posit32::round_from_f64(TINY), Posit32::MINPOS);
        assert_eq!(Posit32::round_from_f64(f64::NEG_INFINITY), Posit32::NAR);
        assert_eq!(Posit16::round_from_f64(f64::MAX), Posit16::MAXPOS);
        assert_eq!(Posit16::round_from_f64(TINY), Posit16::MINPOS);
        assert_eq!(Posit16::round_from_f64(f64::NAN), Posit16::NAR);
        assert_eq!(Half::round_from_f64(f64::MAX).to_bits(), Half::INFINITY.to_bits());
        assert_eq!(Half::round_from_f64(f64::NAN).to_bits(), Half::NAN.to_bits());
        assert_eq!(BFloat16::round_from_f64(TINY).to_bits(), 0);
        assert_eq!(BFloat16::round_from_f64(f64::NAN).to_bits(), BFloat16::NAN.to_bits());
    }

    /// posit32's bit-pattern log cut agrees with widening first, on the
    /// edge patterns and a stride through all 2^32.
    #[test]
    fn posit32_log_cut_matches_the_widened_cut() {
        let edges = [0, 1, 0x4000_0000, 0x7FFF_FFFF, 0x8000_0000, 0x8000_0001, u32::MAX];
        for bits in edges.into_iter().chain((0..=u32::MAX).step_by(4099)) {
            let x = Posit32::from_bits(bits);
            let xd = x.to_f64();
            let want = if <Ln as Front<Posit32>>::dom(xd) {
                Ok(xd)
            } else {
                Err(log_special(x, xd))
            };
            assert_eq!(Posit32::log_front(x), want, "{bits:#x}");
        }
    }
}
