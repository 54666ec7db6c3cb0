//! The correctly rounded oracle (the role MPFR plays in the paper).
//!
//! Given an elementary function and an input in any target representation
//! `T`, [`correctly_rounded`] returns the *exact* result of evaluating the
//! function over the reals, rounded once into `T`. The implementation is
//! Ziv's strategy: evaluate with [`crate::elem`] at 128 bits, widen by the
//! guaranteed error bound, and check whether both ends of the error
//! interval round identically; if not, double the precision and retry.
//!
//! Rounding from the multi-precision value into `T` goes through
//! round-to-odd at 53 bits ([`MpFloat::to_f64_round_odd`]) followed by the
//! representation's own rounding — a composition that is provably a single
//! correct rounding for every target with at most 51 significant bits,
//! ties and exact values included.
//!
//! Results that are *exactly representable* (the table-maker's dilemma
//! degenerate cases: `ln 1`, `log2` of powers of two, `exp2` of integers,
//! `sinpi` of half-integers, ...) are detected up front from the
//! transcendence structure of each function; the Ziv loop would not
//! terminate on them.

use crate::biguint::BigUint;
use crate::elem;
use crate::float::MpFloat;
use core::any::TypeId;
use rlibm_fp::Representation;
use rlibm_obs::{Counter, Histogram};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hash;
use std::thread::LocalKey;

// The oracle entry points are plain functions over value types; parallel
// validation hands them to worker threads by shared reference, so the
// types they traffic in must stay thread-safe. Compile-time proof:
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Func>();
    assert_send_sync::<MpFloat>();
    assert_send_sync::<BigUint>();
};

/// Bound on each per-thread oracle cache (entries, not bytes). When a
/// cache fills up it is cleared wholesale — no eviction bookkeeping, and
/// a full sweep over a 16-bit domain still fits in one generation.
const ZIV_CACHE_CAP: usize = 1 << 16;

// Ziv-loop telemetry (no-ops unless built with the `telemetry` feature).
// Indexed by [`Func::index`], i.e. [`Func::ALL`] order. The final-precision
// histograms are the load-bearing metric: they show how often the oracle
// settles at the 128-bit starting precision versus escalating toward the
// hard cases near rounding boundaries.
static ZIV_FINAL_PREC: [Histogram; 10] = [
    Histogram::new("oracle.ziv.final_prec.ln"),
    Histogram::new("oracle.ziv.final_prec.log2"),
    Histogram::new("oracle.ziv.final_prec.log10"),
    Histogram::new("oracle.ziv.final_prec.exp"),
    Histogram::new("oracle.ziv.final_prec.exp2"),
    Histogram::new("oracle.ziv.final_prec.exp10"),
    Histogram::new("oracle.ziv.final_prec.sinh"),
    Histogram::new("oracle.ziv.final_prec.cosh"),
    Histogram::new("oracle.ziv.final_prec.sinpi"),
    Histogram::new("oracle.ziv.final_prec.cospi"),
];
static ZIV_ESCALATIONS: [Counter; 10] = [
    Counter::new("oracle.ziv.escalations.ln"),
    Counter::new("oracle.ziv.escalations.log2"),
    Counter::new("oracle.ziv.escalations.log10"),
    Counter::new("oracle.ziv.escalations.exp"),
    Counter::new("oracle.ziv.escalations.exp2"),
    Counter::new("oracle.ziv.escalations.exp10"),
    Counter::new("oracle.ziv.escalations.sinh"),
    Counter::new("oracle.ziv.escalations.cosh"),
    Counter::new("oracle.ziv.escalations.sinpi"),
    Counter::new("oracle.ziv.escalations.cospi"),
];
static ZIV_CACHE_HITS: Counter = Counter::new("oracle.ziv.cache_hits");
static ZIV_MP_EVALS: Counter = Counter::new("oracle.ziv.mp_evals");
// Wholesale cache flushes at ZIV_CACHE_CAP: each one discards every warm
// entry on the thread, so a nonzero count explains sudden cache-hit-rate
// cliffs in long generation runs.
static ZIV_CACHE_CLEARS: Counter = Counter::new("oracle.ziv.cache_clears");

/// Forces every oracle metric into the snapshot registry at value zero,
/// so reports can distinguish "never escalated" from "not linked".
pub fn register_metrics() {
    for h in &ZIV_FINAL_PREC {
        h.register();
    }
    for c in &ZIV_ESCALATIONS {
        c.register();
    }
    ZIV_CACHE_HITS.register();
    ZIV_MP_EVALS.register();
    ZIV_CACHE_CLEARS.register();
}

thread_local! {
    // Ziv-loop results are worth caching: the generator evaluates
    // `correctly_rounded_f64` once per *reduced* input, and many inputs
    // share a reduced input; repeated validation sweeps replay identical
    // queries. Keyed by bit pattern (plus target type for the generic
    // entry point); thread-local, so no locks on the hot path and the
    // parallel engine's workers each warm their own cache.
    static ZIV_CACHE_T: RefCell<HashMap<(Func, TypeId, u32), u32>> =
        RefCell::new(HashMap::new());
    static ZIV_CACHE_F64: RefCell<HashMap<(Func, u64), u64>> =
        RefCell::new(HashMap::new());
}

/// The ten elementary functions of the paper's float library (Table 1).
/// The posit32 library uses the first eight (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Func {
    /// Natural logarithm.
    Ln,
    /// Base-2 logarithm.
    Log2,
    /// Base-10 logarithm.
    Log10,
    /// Natural exponential.
    Exp,
    /// Base-2 exponential.
    Exp2,
    /// Base-10 exponential.
    Exp10,
    /// Hyperbolic sine.
    Sinh,
    /// Hyperbolic cosine.
    Cosh,
    /// `sin(pi x)`.
    SinPi,
    /// `cos(pi x)`.
    CosPi,
}

impl Func {
    /// All ten functions, in the paper's Table 1 order.
    pub const ALL: [Func; 10] = [
        Func::Ln,
        Func::Log2,
        Func::Log10,
        Func::Exp,
        Func::Exp2,
        Func::Exp10,
        Func::Sinh,
        Func::Cosh,
        Func::SinPi,
        Func::CosPi,
    ];

    /// The eight functions of the posit32 library (Table 2).
    pub const POSIT: [Func; 8] = [
        Func::Ln,
        Func::Log2,
        Func::Log10,
        Func::Exp,
        Func::Exp2,
        Func::Exp10,
        Func::Sinh,
        Func::Cosh,
    ];

    /// Dense index of this function in [`Func::ALL`] order (0..10).
    /// Harnesses use it to key per-function metric and result arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Func::Ln => "ln",
            Func::Log2 => "log2",
            Func::Log10 => "log10",
            Func::Exp => "exp",
            Func::Exp2 => "exp2",
            Func::Exp10 => "exp10",
            Func::Sinh => "sinh",
            Func::Cosh => "cosh",
            Func::SinPi => "sinpi",
            Func::CosPi => "cospi",
        }
    }

    /// Reference `f64` implementation from the host libm (useful for
    /// sanity tests; NOT correctly rounded).
    pub fn host_f64(self, x: f64) -> f64 {
        match self {
            Func::Ln => x.ln(),
            Func::Log2 => x.log2(),
            Func::Log10 => x.log10(),
            Func::Exp => x.exp(),
            Func::Exp2 => x.exp2(),
            Func::Exp10 => 10f64.powf(x),
            Func::Sinh => x.sinh(),
            Func::Cosh => x.cosh(),
            Func::SinPi => (core::f64::consts::PI * x).sin(),
            Func::CosPi => (core::f64::consts::PI * x).cos(),
        }
    }

    /// Multi-precision evaluation (input must be finite and inside the
    /// function's open domain; exact cases must already be filtered).
    fn eval_mp(self, x: f64, prec: u32) -> MpFloat {
        match self {
            Func::Ln => elem::ln(x, prec),
            Func::Log2 => elem::log2(x, prec),
            Func::Log10 => elem::log10(x, prec),
            Func::Exp => elem::exp(x, prec),
            Func::Exp2 => elem::exp2(x, prec),
            Func::Exp10 => elem::exp10(x, prec),
            Func::Sinh => elem::sinh(x, prec),
            Func::Cosh => elem::cosh(x, prec),
            Func::SinPi => elem::sinpi(x, prec),
            Func::CosPi => elem::cospi(x, prec),
        }
    }
}

/// Outcome of the special-case filter: either a ready `f64` whose single
/// rounding into the target is the answer, or "run the Ziv loop".
enum Filtered {
    /// Round this double into the target (it is either the exact result or
    /// a round-odd surrogate that rounds identically).
    Value(f64),
    /// The result is this exact multi-precision value.
    Exact(MpFloat),
    /// Proceed with multi-precision evaluation.
    Continue,
}

/// A saturating stand-in for "finite but larger than every target":
/// `f64::MAX` rounds to infinity in the float family and to `maxpos` in the
/// posit family, which is exactly the saturation each target wants.
const HUGE: f64 = f64::MAX;
/// A stand-in for "nonzero but smaller than every target boundary".
fn tiny(sign: bool) -> f64 {
    if sign {
        -f64::from_bits(1)
    } else {
        f64::from_bits(1)
    }
}

/// Special-case filter, in `f64` terms (every target input widens exactly).
fn filter(f: Func, x: f64) -> Filtered {
    use Filtered::*;
    if x.is_nan() {
        return Value(f64::NAN);
    }
    match f {
        Func::Ln | Func::Log2 | Func::Log10 => {
            if x < 0.0 {
                return Value(f64::NAN);
            }
            if x == 0.0 {
                return Value(f64::NEG_INFINITY);
            }
            if x.is_infinite() {
                return Value(f64::INFINITY);
            }
            if x == 1.0 {
                return Value(0.0);
            }
            match f {
                Func::Log2 => {
                    // Exact iff x is a power of two (log2 of any other
                    // rational is irrational).
                    let (_, mant, exp) = rlibm_fp::bits::decompose_f64(x);
                    if mant == 1 {
                        return Value(exp as f64);
                    }
                }
                Func::Log10
                    // Exact iff x == 10^k (k integer). Only k >= 0 can be
                    // binary-representable (10^-k is not dyadic).
                    if x >= 1.0 && x.fract() == 0.0 => {
                        let k = x.log10().round();
                        if (0.0..=400.0).contains(&k) {
                            let p = BigUint::from_u64(10).pow(k as u64);
                            let xr = crate::Rational::from_f64(x);
                            if xr.denom().is_one() && *xr.numer().magnitude() == p {
                                return Value(k);
                            }
                        }
                    }
                _ => {}
            }
            Continue
        }
        Func::Exp | Func::Exp2 | Func::Exp10 => {
            if x == f64::NEG_INFINITY {
                return Value(0.0);
            }
            if x == f64::INFINITY {
                return Value(f64::INFINITY);
            }
            if x == 0.0 {
                return Value(1.0);
            }
            // Clamp far outside every target's dynamic range so the
            // multi-precision exponent stays small.
            let log2_result = match f {
                Func::Exp => x * core::f64::consts::LOG2_E,
                Func::Exp2 => x,
                Func::Exp10 => x * core::f64::consts::LOG2_10,
                _ => unreachable!("only the exponential family reaches here"),
            };
            if log2_result > 4096.0 {
                return Value(HUGE);
            }
            if log2_result < -4096.0 {
                return Value(tiny(false));
            }
            // Exact integer cases: 2^n always; 10^n for n >= 0.
            if f == Func::Exp2 && x.fract() == 0.0 {
                return Exact(MpFloat::from_u64(1, 8).mul_pow2(x as i64));
            }
            if f == Func::Exp10 && x.fract() == 0.0 && x > 0.0 {
                let p = BigUint::from_u64(10).pow(x as u64);
                let prec = (p.bit_len() as u32).max(2);
                return Exact(MpFloat::normalize_round(false, 0, p, prec, false));
            }
            Continue
        }
        Func::Sinh => {
            if x == 0.0 || x.is_infinite() {
                return Value(x); // sinh(+-0) = +-0, sinh(+-inf) = +-inf
            }
            if x.abs() * core::f64::consts::LOG2_E > 4096.0 {
                return Value(if x > 0.0 { HUGE } else { -HUGE });
            }
            Continue
        }
        Func::Cosh => {
            if x == 0.0 {
                return Value(1.0);
            }
            if x.is_infinite() {
                return Value(f64::INFINITY);
            }
            if x.abs() * core::f64::consts::LOG2_E > 4096.0 {
                return Value(HUGE);
            }
            Continue
        }
        Func::SinPi => {
            if x.is_infinite() {
                return Value(f64::NAN);
            }
            if x == 0.0 {
                return Value(x); // preserves the zero's sign
            }
            if x.fract() == 0.0 {
                // sin(pi n) == 0 exactly. Zero-sign conventions vary
                // across libms; we use +0 and compare by value elsewhere.
                return Value(0.0);
            }
            let half = x - 0.5; // exact: non-integer x here has |x| < 2^52
            if half.fract() == 0.0 {
                // sin(pi (n + 1/2)) = (-1)^n for any integer n.
                let n = half as i64;
                return Value(if n.rem_euclid(2) == 0 { 1.0 } else { -1.0 });
            }
            Continue
        }
        Func::CosPi => {
            if x.is_infinite() {
                return Value(f64::NAN);
            }
            if x == 0.0 {
                return Value(1.0);
            }
            let a = x.abs();
            if a >= 2f64.powi(53) {
                return Value(1.0); // every such double is an even integer
            }
            if a.fract() == 0.0 {
                return Value(if (a as i64) % 2 == 0 { 1.0 } else { -1.0 });
            }
            if (a - 0.5).fract() == 0.0 {
                return Value(0.0); // cos(pi (n + 1/2)) == 0 exactly
            }
            Continue
        }
    }
}

/// Rounds a multi-precision value into `T` via round-to-odd at 53 bits.
pub fn round_mp<T: Representation>(v: &MpFloat) -> T {
    T::round_from_f64(v.to_f64_round_odd())
}

/// True when `f(x)` is a special or exactly representable case that a
/// library front-end handles before the polynomial path (domain errors,
/// infinities, `ln 1 = 0`, `exp2` of integers, `sinpi` of half-integers,
/// ...). The generator excludes these inputs — their rounding intervals
/// are degenerate (often singletons), which would force the LP toward
/// zero margin exactly as the paper's special-case handling avoids.
pub fn is_special_case(f: Func, x: f64) -> bool {
    !matches!(filter(f, x), Filtered::Continue)
}

/// Precision ceiling used by the infallible oracle wrappers: 16384 bits.
///
/// Every filtered (non-exact) case of the ten paper functions resolves
/// far below this — a disagreement at 16384 bits would mean an exact case
/// missed by [`filter`], which [`try_correctly_rounded`] reports as an
/// error instead of doubling forever.
pub const DEFAULT_PREC_CEILING: u32 = 1 << 14;

/// Floor on the Ziv starting precision (the elementary series need some
/// working room regardless of how low the caller sets the ceiling).
const MIN_ZIV_PREC: u32 = 32;

/// Failure modes of the bounded Ziv oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleError {
    /// The rounding test still disagreed at the precision ceiling. Either
    /// the ceiling is artificially low, or the input is an exact case
    /// that [`filter`] failed to enumerate (a table-maker's-dilemma point
    /// that genuinely needs more bits cannot exist past a few hundred
    /// bits for these functions).
    PrecisionExhausted {
        /// The function being evaluated.
        func: Func,
        /// The input (widened to f64).
        input: f64,
        /// The ceiling that was exhausted.
        max_prec: u32,
    },
    /// The multi-precision evaluation returned exactly zero, which the
    /// filter should have caught as an exact case.
    UnexpectedZero {
        /// The function being evaluated.
        func: Func,
        /// The input (widened to f64).
        input: f64,
        /// The working precision at which the zero appeared.
        prec: u32,
    },
}

impl core::fmt::Display for OracleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OracleError::PrecisionExhausted { func, input, max_prec } => write!(
                f,
                "Ziv loop exceeded {max_prec} bits for {func}({input:e}); \
                 the result may be an unfiltered exact case"
            ),
            OracleError::UnexpectedZero { func, input, prec } => {
                write!(f, "unexpected exact zero from {func}({input:e}) at {prec} bits")
            }
        }
    }
}

impl std::error::Error for OracleError {}

/// The correctly rounded value of `f(x)` in the representation `T`.
///
/// This is the oracle of Algorithm 1, line 4 (`RN_T(f(x))`).
///
/// # Example
///
/// ```
/// use rlibm_mp::{correctly_rounded, Func};
/// let y: f32 = correctly_rounded(Func::Exp, 1.0f32);
/// assert_eq!(y, 2.7182817f32);
/// ```
pub fn correctly_rounded<T: Representation>(f: Func, x: T) -> T {
    match try_correctly_rounded(f, x, DEFAULT_PREC_CEILING) {
        Ok(v) => v,
        // 16384 bits of disagreement would mean `filter` missed an exact
        // case — impossible for the enumerated special-case tables, and
        // covered by the exhaustive oracle sweeps in the workspace tests.
        Err(e) => unreachable!("{e}"),
    }
}

/// [`correctly_rounded`] with an explicit Ziv precision ceiling.
///
/// The Ziv loop starts at min(128, `max_prec`) bits (but never below the
/// working floor of the elementary series) and doubles until the widened
/// value interval rounds unambiguously; when it would exceed `max_prec`
/// it returns [`OracleError::PrecisionExhausted`] instead of looping.
///
/// # Errors
///
/// [`OracleError::PrecisionExhausted`] when the ceiling is reached
/// without an unambiguous rounding; [`OracleError::UnexpectedZero`] if
/// the multi-precision evaluation collapses to exact zero (an exact case
/// [`filter`] should have handled).
pub fn try_correctly_rounded<T: Representation>(
    f: Func,
    x: T,
    max_prec: u32,
) -> Result<T, OracleError> {
    let xf = x.to_f64();
    match filter(f, xf) {
        Filtered::Value(v) => Ok(T::round_from_f64(v)),
        Filtered::Exact(v) => Ok(round_mp(&v)),
        Filtered::Continue => {
            let key = (f, TypeId::of::<T>(), x.to_bits_u32());
            ziv(f, xf, max_prec, &ZIV_CACHE_T, key, |v| round_mp::<T>(v).to_bits_u32())
                .map(T::from_bits_u32)
        }
    }
}

/// The correctly rounded value of `f(x)` in double precision.
///
/// Used by the generator when deducing reduced intervals: Algorithm 2
/// line 7 computes `RN_H(f_i(r))` with `H = f64`.
pub fn correctly_rounded_f64(f: Func, x: f64) -> f64 {
    match try_correctly_rounded_f64(f, x, DEFAULT_PREC_CEILING) {
        Ok(v) => v,
        Err(e) => unreachable!("{e}"),
    }
}

/// [`correctly_rounded_f64`] with an explicit Ziv precision ceiling.
///
/// # Errors
///
/// Same failure modes as [`try_correctly_rounded`].
pub fn try_correctly_rounded_f64(f: Func, x: f64, max_prec: u32) -> Result<f64, OracleError> {
    match filter(f, x) {
        Filtered::Value(v) => Ok(v),
        Filtered::Exact(v) => Ok(v.to_f64()),
        Filtered::Continue => {
            let key = (f, x.to_bits());
            ziv(f, x, max_prec, &ZIV_CACHE_F64, key, |v| v.to_f64().to_bits()).map(f64::from_bits)
        }
    }
}

/// The Ziv loop behind both entries: evaluate `f(x)` at 128 bits (within
/// `[MIN_ZIV_PREC, max_prec]`), widen by ±[`elem::ERR_ULPS`] ulps, and
/// return the common `round` of both ends, doubling the precision until
/// they agree. `round` maps a value to the target's bits; results are
/// cached under `key` in the entry's thread-local `cache`.
fn ziv<K: Eq + Hash, V: Copy + Eq>(
    f: Func,
    x: f64,
    max_prec: u32,
    cache: &'static LocalKey<RefCell<HashMap<K, V>>>,
    key: K,
    round: impl Fn(&MpFloat) -> V,
) -> Result<V, OracleError> {
    if let Some(bits) = cache.with(|c| c.borrow().get(&key).copied()) {
        ZIV_CACHE_HITS.add(1);
        return Ok(bits);
    }
    let mut prec = 128u32.min(max_prec).max(MIN_ZIV_PREC);
    let mut escalations = 0u64;
    loop {
        ZIV_MP_EVALS.add(1);
        let v = f.eval_mp(x, prec);
        if v.is_zero() {
            return Err(OracleError::UnexpectedZero { func: f, input: x, prec });
        }
        let rl = round(&v.offset_ulps(-elem::ERR_ULPS));
        if rl == round(&v.offset_ulps(elem::ERR_ULPS)) {
            ZIV_FINAL_PREC[f.index()].record(u64::from(prec));
            ZIV_ESCALATIONS[f.index()].add(escalations);
            cache.with(|c| {
                let mut c = c.borrow_mut();
                if c.len() >= ZIV_CACHE_CAP {
                    ZIV_CACHE_CLEARS.add(1);
                    c.clear();
                }
                c.insert(key, rl);
            });
            return Ok(rl);
        }
        let next = prec.saturating_mul(2);
        if next > max_prec {
            return Err(OracleError::PrecisionExhausted { func: f, input: x, max_prec });
        }
        prec = next;
        escalations += 1;
    }
}

impl core::fmt::Display for Func {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_cases_float() {
        assert!(correctly_rounded::<f32>(Func::Ln, f32::NAN).is_nan());
        assert!(correctly_rounded::<f32>(Func::Ln, -1.0f32).is_nan());
        assert_eq!(correctly_rounded::<f32>(Func::Ln, 0.0f32), f32::NEG_INFINITY);
        assert_eq!(correctly_rounded::<f32>(Func::Ln, 1.0f32), 0.0);
        assert_eq!(correctly_rounded::<f32>(Func::Exp, f32::NEG_INFINITY), 0.0);
        assert_eq!(correctly_rounded::<f32>(Func::Exp, 0.0f32), 1.0);
        assert_eq!(correctly_rounded::<f32>(Func::Exp2, 10.0f32), 1024.0);
        assert_eq!(correctly_rounded::<f32>(Func::Exp10, 5.0f32), 1e5);
        assert_eq!(correctly_rounded::<f32>(Func::Log2, 4096.0f32), 12.0);
        assert_eq!(correctly_rounded::<f32>(Func::Log10, 1000.0f32), 3.0);
        assert_eq!(correctly_rounded::<f32>(Func::SinPi, 2.5f32), 1.0);
        assert_eq!(correctly_rounded::<f32>(Func::SinPi, 7.0f32), 0.0);
        assert_eq!(correctly_rounded::<f32>(Func::CosPi, 7.0f32), -1.0);
        assert_eq!(correctly_rounded::<f32>(Func::CosPi, 7.5f32), 0.0);
        assert_eq!(correctly_rounded::<f32>(Func::Cosh, 0.0f32), 1.0);
    }

    #[test]
    fn overflow_saturation_float_vs_posit() {
        use rlibm_posit::Posit32;
        // exp overflows float to +inf...
        assert_eq!(correctly_rounded::<f32>(Func::Exp, 1000.0f32), f32::INFINITY);
        // ...but saturates posit32 to maxpos.
        let big = Posit32::from_f64(1000.0);
        assert_eq!(correctly_rounded::<Posit32>(Func::Exp, big), Posit32::MAXPOS);
        // exp of very negative: float underflows to 0, posit to minpos.
        assert_eq!(correctly_rounded::<f32>(Func::Exp, -1000.0f32), 0.0);
        let neg = Posit32::from_f64(-1000.0);
        assert_eq!(correctly_rounded::<Posit32>(Func::Exp, neg), Posit32::MINPOS);
    }

    #[test]
    fn agrees_with_host_libm_on_easy_points() {
        // The host double libm is accurate to ~1 ulp; rounding its result
        // to f32 agrees with the correctly rounded result except within a
        // sliver around f32 rounding boundaries. Avoid half-integers
        // (exact sinpi/cospi zeros where the host's pi-rounding error
        // dominates) and allow a 1-ulp sliver.
        for &x in &[0.53f32, 1.47, 2.11, 3.7, 10.1, 0.037] {
            for f in Func::ALL {
                let ours = correctly_rounded::<f32>(f, x);
                let host = f.host_f64(x as f64) as f32;
                let tol = rlibm_fp::bits::ulp_f32(host);
                assert!(
                    (ours - host).abs() <= tol,
                    "{f}({x}): ours {ours:e} vs host {host:e}"
                );
            }
        }
    }

    #[test]
    fn sinpi_sign_structure() {
        assert_eq!(correctly_rounded::<f32>(Func::SinPi, 0.25f32), 0.70710677f32);
        assert_eq!(correctly_rounded::<f32>(Func::SinPi, -0.25f32), -0.70710677f32);
        assert_eq!(correctly_rounded::<f32>(Func::SinPi, 1.25f32), -0.70710677f32);
        assert_eq!(correctly_rounded::<f32>(Func::CosPi, 0.75f32), -0.70710677f32);
    }

    #[test]
    fn f64_oracle_matches_host_on_easy_points() {
        for &x in &[0.3, 1.9, 5.3] {
            for f in Func::ALL {
                let ours = correctly_rounded_f64(f, x);
                let host = f.host_f64(x);
                let diff = (ours - host).abs();
                // sinpi/cospi through the host accumulate the rounding of
                // pi*x, amplified by |x|: allow that absolute slack.
                let tol = match f {
                    Func::SinPi | Func::CosPi => {
                        2.0 * rlibm_fp::bits::ulp_f64(host) + x.abs() * 4.0 * f64::EPSILON
                    }
                    _ => 2.0 * rlibm_fp::bits::ulp_f64(host),
                };
                assert!(diff <= tol, "{f}({x}): {ours:e} vs host {host:e}");
            }
        }
    }

    #[test]
    fn cached_queries_are_stable_and_thread_safe() {
        // Same query twice on one thread (second hit comes from the
        // per-thread cache) and once from a fresh thread (cold cache):
        // all three must agree bit for bit.
        for f in Func::ALL {
            let first = correctly_rounded::<f32>(f, 0.73f32);
            let again = correctly_rounded::<f32>(f, 0.73f32);
            assert_eq!(first.to_bits(), again.to_bits());
            let d1 = correctly_rounded_f64(f, 0.73);
            let d2 = correctly_rounded_f64(f, 0.73);
            assert_eq!(d1.to_bits(), d2.to_bits());
            let (cold, cold64) = std::thread::scope(|s| {
                s.spawn(|| (correctly_rounded::<f32>(f, 0.73f32), correctly_rounded_f64(f, 0.73)))
                    .join()
                    .unwrap()
            });
            assert_eq!(cold.to_bits(), first.to_bits());
            assert_eq!(cold64.to_bits(), d1.to_bits());
        }
    }

    #[test]
    fn cache_distinguishes_target_types() {
        use rlibm_fp::{BFloat16, Half};
        // Identical (func, bit-pattern) keys for different 16-bit targets
        // must not collide: 0x3DCC is bf16 0.0996… but half 0.4248….
        let bits = 0x3DCCu16;
        // Warm the cache with the bf16 query, then issue the half query on
        // this (warm) thread and both queries on a cold thread; a key
        // collision would surface as a warm/cold mismatch.
        let b: BFloat16 = correctly_rounded(Func::Exp, BFloat16::from_bits(bits));
        let h: Half = correctly_rounded(Func::Exp, Half::from_bits(bits));
        let (cb, ch) = std::thread::scope(|s| {
            s.spawn(|| {
                let cb: BFloat16 = correctly_rounded(Func::Exp, BFloat16::from_bits(bits));
                let ch: Half = correctly_rounded(Func::Exp, Half::from_bits(bits));
                (cb, ch)
            })
            .join()
            .unwrap()
        });
        assert_eq!(b.to_bits(), cb.to_bits());
        assert_eq!(h.to_bits(), ch.to_bits());
        assert_ne!(b.to_f64(), h.to_f64());
    }

    #[test]
    fn precision_ceiling_surfaces_as_error_not_hang() {
        // At a 32-bit ceiling the widened Ziv interval (ERR_ULPS ulps at
        // 32 bits of working precision) routinely straddles an f32
        // rounding boundary, so a sweep of ordinary inputs must hit
        // PrecisionExhausted — and must *return* it rather than loop.
        let mut exhausted = 0u32;
        let mut agree = 0u32;
        for i in 0..2000u32 {
            let x = 0.5f32 + i as f32 * 1e-3;
            match try_correctly_rounded::<f32>(Func::Ln, x, 32) {
                Ok(y) => {
                    // A low-ceiling success must agree with the default oracle.
                    assert_eq!(y.to_bits(), correctly_rounded::<f32>(Func::Ln, x).to_bits());
                    agree += 1;
                }
                Err(OracleError::PrecisionExhausted { func, max_prec, .. }) => {
                    assert_eq!(func, Func::Ln);
                    assert_eq!(max_prec, 32);
                    exhausted += 1;
                }
                Err(other) => panic!("unexpected oracle error {other}"),
            }
        }
        assert!(exhausted > 0, "an artificially low ceiling must be reachable");
        assert!(agree > 0, "most inputs still resolve at 32 bits");
        // The same inputs resolve fine under the default ceiling.
        for i in 0..2000u32 {
            let x = 0.5f32 + i as f32 * 1e-3;
            assert!(try_correctly_rounded::<f32>(Func::Ln, x, DEFAULT_PREC_CEILING).is_ok());
        }
    }

    #[test]
    fn f64_precision_ceiling_surfaces_as_error() {
        let mut exhausted = 0u32;
        for i in 0..500u32 {
            let x = 1.0 + f64::from(i) * 1e-3;
            if matches!(
                try_correctly_rounded_f64(Func::Exp, x, 32),
                Err(OracleError::PrecisionExhausted { .. })
            ) {
                exhausted += 1;
            }
        }
        assert!(exhausted > 0);
    }

    #[test]
    fn bfloat16_oracle_exhaustive_strip() {
        // Every bfloat16 in [1, 2): exp must be monotone and within the
        // correct bracket of the host libm.
        use rlibm_fp::BFloat16;
        let mut prev = f64::MIN;
        for bits in 0x3F80u16..0x4000 {
            let x = BFloat16::from_bits(bits);
            let y = correctly_rounded::<BFloat16>(Func::Exp, x).to_f64();
            assert!(y >= prev, "exp not monotone at {x}");
            prev = y;
            let host = x.to_f64().exp();
            assert!((y - host).abs() <= host * 0.01);
        }
    }
}
