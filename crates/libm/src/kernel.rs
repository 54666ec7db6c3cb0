//! Plain-double **fast-path kernels** — the paper's actual evaluation
//! regime (`H = double`), recovered, written once per function.
//!
//! The dd kernels in [`crate::float`] carry double-double pairs through
//! every accuracy-critical step, which buys a ~2^-85 evaluation error at a
//! self-measured 2-3x instruction cost (each `two_prod` is an `fma`
//! libcall on the workspace's baseline x86-64 target). RLIBM-32 never pays
//! that tax: its generated polynomials evaluate in *plain double* and the
//! result is still correctly rounded because the double sits far enough
//! from every rounding boundary of the 32-bit target.
//!
//! This module reproduces that regime as Ziv's two steps, with a
//! statically certified first step:
//!
//! 1. every function gets a plain-double kernel (reduction, table lookup,
//!    a short Horner polynomial — no double-double, no `fma` libcalls)
//!    with a *statically derived* relative error bound `BAND · 2^-53`;
//! 2. the front end checks, with one bit-pattern test
//!    ([`crate::round::f32_round_safe`] /
//!    [`crate::round::posit32_safe_narrow`], fused with the cast), whether
//!    the double could lie within that bound of a rounding boundary of the
//!    target grid. If it cannot, rounding the double **is** the correct
//!    rounding and the fast result ships;
//! 3. otherwise (about 0.05% of in-domain calls on the timing workloads)
//!    the dd + round-to-odd kernel re-runs.
//!
//! # One source per function
//!
//! Each function is one type implementing [`Kernel`]: its reduce → table
//! → polynomial → reconstruct as `eval<V: F64Lane>`, its dd kernel, and
//! its [`Rung`]: the Horner terms, band and derived bound of the fast
//! step. The same type carries the function's special-case front end
//! for every format ([`crate::front`]), which decides what it is fed. The
//! scalar entry (`eval::<f64>`), the portable batched driver (the same,
//! 64 lanes per chunk) and the AVX2 stages (`eval::<Avx2>`) are
//! instantiations of that one function, so a band, term-count or
//! constant change is one edit. [`crate::lane`] says why the
//! instantiations agree bit for bit.
//!
//! # Certification argument
//!
//! Each kernel's bound is derived below from the classical op-by-op model
//! (every +,-,*,/ rounds with relative error <= 2^-53; exact steps are
//! called out), with the polynomial's truncated tail added, and then
//! padded by 2-4 bits of margin. The bounds are additionally validated
//! empirically: the workspace tests compare the fast output
//! **bit-for-bit** against the pure dd kernels over the exhaustive
//! bfloat16 domain and million-input stratified f32/posit32 sweeps, and
//! the tier-1 oracle tests (multi-precision Ziv oracle) cover the
//! composed pipeline. A band violation would surface as a bit difference
//! in those sweeps.
//!
//! Per-kernel error derivations (all relative to the final result, in
//! units of 2^-53; `u` denotes one rounding):
//!
//! | kernel | reduction, table and combine | dropped terms: truncation | DERIVED | BAND |
//! |---|---|---|---|---|
//! | `exp`   | reduction exact + 1u, poly ~4u, table combine ~2u | `r^5/120..`: <= ~351u at `\|r\| <= ln2/128` | 512 | 2048 |
//! | `exp2`  | `t = x - k/64` exact (Sterbenz), rest as `exp` | as `exp` | 512 | 2048 |
//! | `exp10` | `x·LN10_HI` rounds before a 2^7 cancellation: ~160u | as `exp`, on top | 1024 | 4096 |
//! | `ln`    | `e·LN2_HI42` exact; cancellation vs table is Sterbenz-exact; poly-vs-result amplification <= 2.7x | `u^6/6..` absolute: <= ~2300u after the fold's 0.0027 floor | 4096 | 16384 |
//! | `log2`  | `e + table.0` exact in the cancelling case (integer + [1/2,1)) | as `ln`, x1.44 | 4096 | 16384 |
//! | `log10` | `e·LOG10_2_HI` exact for the only cancelling `e = -1` | as `ln` | 4096 | 16384 |
//! | `sinh`  | `(A - 1/A)` cancels <= coth(1/16) ~ 16x | via `exp`: ~351u x 16 | 8192 | 16384 |
//! | `cosh`  | `(A + 1/A)` never cancels | via `exp`: ~351u | 512 | 2048 |
//! | `sinpi` | recombination terms share a sign; min result 0.0061 | `C5, C7`: `C5·r^5` ~ 7.3e-14 absolute, ~110000u | 1 << 17 | 1 << 19 |
//! | `cospi` | Section 5 monotonic recombination, same shape as `sinpi` | `C6`, and `C5, C7` of its sinpi part | 1 << 17 | 1 << 19 |
//!
//! The `sinpi`/`cospi` "min result" entries deserve a note: for table
//! index `N = 0` (resp. `N' = 256`) the result *is* the polynomial value
//! and stays relatively accurate all the way to the smallest outputs; for
//! `N >= 1` the result is bounded below by `sin(pi/512) ~ 0.0061`, so an
//! absolute error is amplified at most ~164x relative. The same argument
//! bounds `ln`/`log2`/`log10` away from their `x -> 1` cancellation: the
//! folded reduction (table index 128 -> exponent+1) routes every input
//! with `|log(x)| < ~0.0015` through the pure-poly branch.
//!
//! The kernels read only the **hi words** of the packed tables (one u64
//! decode per entry): the dropped lo word is < 2^-54 of its hi word,
//! which is under 1u for the exp family, about 200u for the log family
//! at the fold's ~0.0027 cancellation floor and ~2^-53 relative for the
//! trig tables — noise against every band above, and any excursion
//! simply goes to dd. The dd kernels read both words.
//!
//! All kernels require a **finite, in-domain** input (the front ends in
//! [`crate::front`] filter specials first; each kernel's docs state the
//! domain it is fed, whose cuts are defined there once per format)
//! and produce a finite double; out-of-range results (f32-subnormal,
//! posit regime > 24) are rejected by the safety test itself, so the
//! kernels never need to reason about them.
//!
//! Each kernel's [`Kernel::RUNG`] carries the table's `BAND` and
//! `DERIVED`: the worst-case kernel error rounded *up* to a power of two.
//! The difference `BAND - DERIVED` is the certification **slack**: a
//! perturbation that moves a kernel result by at most that many f64 ulps
//! keeps the total error within BAND, so an accepted round-safe test
//! still implies a correct cast. The `fault` feature's in-band nudges are
//! sized by it (see `crate::fault`).

use crate::dd::Dd;
use crate::float::{exp as fexp, hyper, log, trig};
use crate::lane::F64Lane;
use crate::registry::Rung;
use crate::tables as t;

/// One function's fast kernel: the single source of its plain-double
/// math for every lane.
pub(crate) trait Kernel {
    /// The fast step's Horner terms, band and derived bound.
    const RUNG: Rung;

    /// The kernel on in-domain lanes (or the batched placeholder `1.0`).
    fn eval<V: F64Lane>(x: V) -> V;

    /// The dd kernel every rejected result falls back to.
    fn dd(x: f64) -> Dd;
}

/// `c[0] + x·(c[1] + x·(… + x·c[n-1]))`, plain Horner. IEEE add and
/// multiply commute exactly, so this is the same op sequence as each
/// polynomial written out in nested form.
#[inline(always)]
fn horner<V: F64Lane>(x: V, c: &[f64]) -> V {
    let n = c.len();
    let mut acc = x.splat(c[n - 1]);
    for &ci in c[..n - 1].iter().rev() {
        acc = acc * x + ci;
    }
    acc
}

/// `a` negated where `neg` is set.
#[inline(always)]
fn signed<V: F64Lane>(neg: V::Mask, a: V) -> V {
    V::blend(neg, -a, a)
}

// ---------------------------------------------------------------------
// exp family
// ---------------------------------------------------------------------

/// Degree-4 Taylor for `e^r`, `|r| <= ln2/128`, as Horner
/// `1 + r·(1 + r·(1/2 + …))`: the relative error stays a few ulps even as
/// `r -> 0`. Truncation `r^5/120 <= ~351·2^-53`.
const EXP_TAYLOR: [f64; 5] = [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0];

/// `2^(k/64) · e^r`: table gather at `j = k mod 64` (`k & 63`), Horner,
/// exponent scale at `i = k div 64` (`k >> 6`). The table's hi word
/// alone (the dropped lo word is < 2^-54·th, under 1u against the 2048u
/// band).
#[inline(always)]
fn exp_combine<V: F64Lane>(k: V::Int, r: V) -> V {
    let j = V::int_and(k, 63);
    let scale = V::pow2i(V::int_sra::<6>(k));
    V::gather_hi(&t::EXP2_64, j) * horner(r, &EXP_TAYLOR) * scale
}

/// `e^x`. Fed `-106 <= x <= 90`: every format's `Format::EXP` domain
/// (f32's `[-106, 89]` is the widest) and `|x| <= 90` from [`Sinh`] /
/// [`Cosh`]. There `|k| < 2^14`, which keeps `k·LN2_64_HI` exact
/// (39-bit constant x 14-bit integer), and `pow2i`'s exponent stays
/// within `[-154, 130]`.
pub(crate) struct Exp;

impl Kernel for Exp {
    const RUNG: Rung = Rung { terms: 5, band: 2048, derived: 512 };

    #[inline(always)]
    fn eval<V: F64Lane>(x: V) -> V {
        let k = (x * (64.0 * t::LOG2_E)).round_even();
        let kf = V::int_f64(k);
        // x - k·LN2_64_HI is exact (cancellation => Sterbenz); the MID word is
        // a power of two, so its product is exact and the subtraction rounds
        // once: |delta r| <= ulp(ln2/128) ~ 2^-60.
        let r = (x - kf * t::LN2_64_HI) - kf * t::LN2_64_MID;
        exp_combine(k, r)
    }

    fn dd(x: f64) -> Dd {
        fexp::exp_kernel(x)
    }
}

/// `2^x`. Fed `-151 <= x < 128`: every format's `Format::EXP2` domain
/// (f32's is the widest).
pub(crate) struct Exp2;

impl Kernel for Exp2 {
    const RUNG: Rung = Rung { terms: 5, band: 2048, derived: 512 };

    #[inline(always)]
    fn eval<V: F64Lane>(x: V) -> V {
        let k = (x * 64.0).round_even();
        let tt = x - V::int_f64(k) / 64.0; // exact: shared grid, Sterbenz
        let r = tt * t::LN2_HI + tt * t::LN2_LO;
        exp_combine(k, r)
    }

    fn dd(x: f64) -> Dd {
        fexp::exp2_kernel(x)
    }
}

/// `10^x`. Fed `-45.5 <= x <= 38.6`, every format's `Format::EXP10`
/// domain (f32's is the widest), so `|k| < 2^14`.
///
/// The reduced argument cancels ~7 bits of `x·ln10`, and `x·LN10_HI`
/// rounds *before* the cancellation — the ~2^-46 relative error in the
/// table above, absorbed by the exp10 band.
pub(crate) struct Exp10;

impl Kernel for Exp10 {
    const RUNG: Rung = Rung { terms: 5, band: 4096, derived: 1024 };

    #[inline(always)]
    fn eval<V: F64Lane>(x: V) -> V {
        let k = (x * (64.0 * t::LOG2_10)).round_even();
        let kf = V::int_f64(k);
        let b = kf * t::LN2_64_HI; // exact (|k| < 2^14)
        let r = (x * t::LN10_HI - b) + (x * t::LN10_LO - kf * t::LN2_64_MID);
        exp_combine(k, r)
    }

    fn dd(x: f64) -> Dd {
        fexp::exp10_kernel(x)
    }
}

// ---------------------------------------------------------------------
// log family
// ---------------------------------------------------------------------

/// Plain-double Tang reduction with the **index-128 fold**: `j = 128` is
/// remapped to `(e + 1, j = 0)`, so every input with `|log x| < ~0.0039`
/// lands in the pure-polynomial branch (`e = 0, j = 0`) where the result
/// keeps *relative* accuracy. Returns `(e, j, u)` with `u = (z - F)/F`.
/// Requires a positive normal double: every positive f32 (subnormals
/// included) and every positive posit32 widens to one.
#[inline(always)]
fn log_reduce<V: F64Lane>(x: V) -> (V, V::Int, V) {
    let e = x.exponent();
    let z = x.significand();
    let j = ((z - 1.0) * 128.0).round_even(); // 0..=128
    let fold = V::int_eq(j, 128);
    let e = V::blend(fold, e + 1.0, e);
    let z = V::blend(fold, z * 0.5, z); // exact
    let j = V::int_and(j, 127); // 128 -> 0
    let f = V::int_f64(j) / 128.0 + 1.0;
    let num = z - f; // exact: same binade, shared grid (Sterbenz at j = 0)
    (e, j, num / f)
}

/// `log1p(u)` for `|u| <= 1/256 + slack` as `u + u^2·q(u)` (relative
/// accuracy for small `u`), with `q` in Horner form up to `u^3/5`
/// (truncation `u^6/6` absolute).
#[inline(always)]
fn log1p<V: F64Lane>(u: V) -> V {
    const Q: [f64; 4] = [-0.5, 1.0 / 3.0, -0.25, 0.2];
    u + (u * u) * horner(u, &Q)
}

/// Natural logarithm. Fed positive finite `x`, the logarithms' front
/// end in every format (f32 subnormals widen to normal doubles).
pub(crate) struct Ln;

impl Kernel for Ln {
    const RUNG: Rung = Rung { terms: 5, band: 16384, derived: 4096 };

    #[inline(always)]
    fn eval<V: F64Lane>(x: V) -> V {
        let (e, j, u) = log_reduce(x);
        let p = log1p(u);
        // e·LN2_HI42 is exact (42-bit constant x |e| <= 2^11); when it
        // cancels against the table value the sum is Sterbenz-exact.
        let c = e * t::LN2_HI42 + V::gather_hi(&t::LN_F, j);
        c + (p + e * t::LN2_MID)
    }

    fn dd(x: f64) -> Dd {
        log::ln_kernel(x)
    }
}

/// Base-2 logarithm. Fed positive finite `x`, as [`Ln`].
pub(crate) struct Log2;

impl Kernel for Log2 {
    const RUNG: Rung = Rung { terms: 5, band: 16384, derived: 4096 };

    #[inline(always)]
    fn eval<V: F64Lane>(x: V) -> V {
        let (e, j, u) = log_reduce(x);
        let p = log1p(u);
        // Integer + [0, 1): exact whenever it cancels (e = -1, j near 128).
        let c = e + V::gather_hi(&t::LOG2_F, j);
        c + (p * t::INV_LN2_HI + p * t::INV_LN2_LO)
    }

    fn dd(x: f64) -> Dd {
        log::log2_kernel(x)
    }
}

/// Base-10 logarithm. Fed positive finite `x`, as [`Ln`].
pub(crate) struct Log10;

impl Kernel for Log10 {
    const RUNG: Rung = Rung { terms: 5, band: 16384, derived: 4096 };

    #[inline(always)]
    fn eval<V: F64Lane>(x: V) -> V {
        let (e, j, u) = log_reduce(x);
        let p = log1p(u);
        // The only cancelling exponent is e = -1, where the product is exact.
        let c = e * t::LOG10_2_HI + V::gather_hi(&t::LOG10_F, j);
        c + (p * t::INV_LN10_HI + (e * t::LOG10_2_LO + p * t::INV_LN10_LO))
    }

    fn dd(x: f64) -> Dd {
        log::log10_kernel(x)
    }
}

// ---------------------------------------------------------------------
// hyperbolic family
// ---------------------------------------------------------------------

/// `sinh(x)`. Fed nonzero `|x| <= 90` (`Format::HYPER`); the fast
/// kernel sees only `|x| >= 2^-13`, since below `Format::SINH_TINY`
/// (`2^-12` for f32, `2^-13` for posit32) the fast entries return `x`
/// itself and only the dd references run the kernel. Below `2^-4` the
/// odd Taylor series to `x^9` avoids the `A - 1/A` cancellation entirely
/// (its error stays a few ulps); above it the cancellation is bounded by
/// `coth(1/16) ~ 16` times the [`Exp`] kernel's error.
pub(crate) struct Sinh;

impl Kernel for Sinh {
    const RUNG: Rung = Rung { terms: 5, band: 16384, derived: 8192 };

    #[inline(always)]
    fn eval<V: F64Lane>(x: V) -> V {
        const ODD: [f64; 4] = [1.0 / 6.0, 1.0 / 120.0, 1.0 / 5040.0, 1.0 / 362_880.0];
        let a = x.abs();
        let v = V::select(
            a.lt(0.0625),
            #[inline(always)]
            || {
                let x2 = a * a;
                a + a * x2 * horner(x2, &ODD)
            },
            #[inline(always)]
            || {
                let big = Exp::eval(a);
                (big - big.splat(1.0) / big) * 0.5
            },
        );
        signed(x.lt(0.0), v)
    }

    fn dd(x: f64) -> Dd {
        hyper::sinh_kernel(x)
    }
}

/// `cosh(x)`. Fed `|x| <= 90` (`Format::HYPER`), zero included; the
/// fast f32 entry returns 1 below `Format::COSH_TINY` (`2^-13`). `A + 1/A`
/// never cancels; the branches are as in [`Sinh`].
pub(crate) struct Cosh;

impl Kernel for Cosh {
    const RUNG: Rung = Rung { terms: 5, band: 2048, derived: 512 };

    #[inline(always)]
    fn eval<V: F64Lane>(x: V) -> V {
        const EVEN: [f64; 5] = [1.0, 0.5, 1.0 / 24.0, 1.0 / 720.0, 1.0 / 40_320.0];
        let a = x.abs();
        V::select(
            a.lt(0.0625),
            #[inline(always)]
            || horner(a * a, &EVEN),
            #[inline(always)]
            || {
                let big = Exp::eval(a);
                (big + big.splat(1.0) / big) * 0.5
            },
        )
    }

    fn dd(x: f64) -> Dd {
        hyper::cosh_kernel(x)
    }
}

// ---------------------------------------------------------------------
// sinpi / cospi
// ---------------------------------------------------------------------

/// `sin(pi r)` for exact `r in [0, 1/512]`, relative accurate as
/// `r -> 0` (leading term rounds once); the tail stops at `C3`.
#[inline(always)]
fn sinpi_poly<V: F64Lane>(r: V) -> V {
    let r2 = r * r;
    r * t::PI_HI + (r * t::PI_LO + r * r2 * t::SINPI_C3)
}

/// `cos(pi r)` for exact `r in [0, 1/512]`; the tail stops at `C4`.
#[inline(always)]
fn cospi_poly<V: F64Lane>(r: V) -> V {
    let r2 = r * r;
    (r2 * t::COSPI_C2_HI + (r2 * t::COSPI_C2_LO + r2 * r2 * t::COSPI_C4)) + 1.0
}

/// Exact `a mod 2` split of a non-negative `a < 2^53`, shared with the dd
/// kernel's structure: `(k, l)` with `a mod 2 = k + l`, `k` flagging the
/// upper half period and `l in [0, 1)`.
#[inline(always)]
fn mod2_split<V: F64Lane>(a: V) -> (V::Mask, V) {
    let j = a - (a * 0.5).floor_pos() * 2.0;
    let k = j.ge(1.0);
    (k, V::blend(k, j - 1.0, j))
}

/// `sin(pi x)`. Fed non-integer `2^-36 <= |x| < 2^23` (f32 only, its
/// front end in [`crate::front`]).
/// Mirrors `sinpi_kernel` without its double-double steps: the table's
/// hi words only and no `corr` fold of the lo words, which carry ~2^-53
/// relative, invisible against the sinpi band of
/// `2^19 * 2^-53 = 2^-34`.
pub(crate) struct Sinpi;

impl Kernel for Sinpi {
    const RUNG: Rung = Rung { terms: 2, band: 1 << 19, derived: 1 << 17 };

    #[inline(always)]
    fn eval<V: F64Lane>(x: V) -> V {
        let (k, l) = mod2_split(x.abs());
        let lp = V::blend(l.gt(0.5), l.splat(1.0) - l, l);
        let n = (lp * 512.0).trunc_pos(); // 0..=256
        let r = lp - V::int_f64(n) / 512.0; // exact
        let sp = sinpi_poly(r);
        let cp = cospi_poly(r);
        // cos(pi n/512) is sinpi table entry 256 - n. N = 0 has sh = 0 and
        // ch = 1: v = sp exactly, keeping relative accuracy for the
        // smallest results.
        let sh = V::gather_hi(&t::SINPI_T, n);
        let ch = V::gather_hi(&t::SINPI_T, V::int_rsub(256, n));
        signed(x.lt(0.0) ^ k, sh * cp + ch * sp)
    }

    fn dd(x: f64) -> Dd {
        trig::sinpi_kernel_signed(x)
    }
}

/// `cos(pi x)`. Fed `7.77e-5 <= |x| < 2^24` with `2|x|` non-integer
/// (f32 only, its front end in [`crate::front`]). Section 5's monotonic
/// recombination (`L' = N'/512 - R`, both terms share a sign);
/// `N' = 256` has table value 0 and
/// degenerates to the pure `sinpi` polynomial, keeping relative accuracy
/// near the zeros at half-integers. Hi words only, as in [`Sinpi`].
pub(crate) struct Cospi;

impl Kernel for Cospi {
    const RUNG: Rung = Rung { terms: 3, band: 1 << 19, derived: 1 << 17 };

    #[inline(always)]
    fn eval<V: F64Lane>(x: V) -> V {
        let (k, l) = mod2_split(x.abs());
        let m = l.gt(0.5);
        let lp = V::blend(m, l.splat(1.0) - l, l);
        let n = (lp * 512.0).trunc_pos(); // 0..=255 (lp < 1/2 here)
        let v = V::select(
            V::int_eq(n, 0),
            #[inline(always)]
            || cospi_poly(lp),
            #[inline(always)]
            || {
                let np = V::int_add(n, 1);
                let r = V::int_f64(np) / 512.0 - lp; // exact
                let sp = sinpi_poly(r);
                let cp = cospi_poly(r);
                let ch = V::gather_hi(&t::SINPI_T, V::int_rsub(256, np));
                let sh = V::gather_hi(&t::SINPI_T, np);
                ch * cp + sh * sp
            },
        );
        signed(k ^ m, v)
    }

    fn dd(x: f64) -> Dd {
        trig::cospi_kernel_signed(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::Front;
    use rlibm_fp::rng::XorShift64;

    /// Checks the kernel against its dd kernel on 20 000 inputs from
    /// `draw` in its f32 fast domain: the observed relative error must stay
    /// within the kernel's certified band (the dd kernel is ~2^-85
    /// accurate, so the difference is an excellent proxy for the fast
    /// kernel's true error).
    fn assert_within_band<K: Kernel + Front<f32>>(seed: u64, draw: impl Fn(&mut XorShift64) -> f64) {
        let mut rng = XorShift64::new(seed);
        for _ in 0..20_000 {
            let x = draw(&mut rng);
            if !K::fast_dom(x) {
                continue;
            }
            let got = K::eval::<f64>(x);
            let want = K::dd(x).to_f64();
            let rel = ((got - want) / want).abs();
            assert!(
                rel <= K::RUNG.band as f64 * 2f64.powi(-53),
                "kernel out of band at x = {x:e}: rel = {rel:e}, band = {}",
                K::RUNG.band
            );
        }
    }

    fn uniform(lo: f64, hi: f64) -> impl Fn(&mut XorShift64) -> f64 {
        move |rng| rng.uniform_f64(lo, hi)
    }

    /// Log-uniform positives.
    fn log_uniform(rng: &mut XorShift64) -> f64 {
        let e = rng.uniform_f64(-120.0, 120.0);
        rng.uniform_f64(1.0, 2.0) * e.exp2()
    }

    #[test]
    fn exp_family_within_band() {
        assert_within_band::<Exp>(0xFA57, uniform(-87.0, 88.0));
        assert_within_band::<Exp2>(0xFA57, uniform(-149.0, 127.9));
        assert_within_band::<Exp10>(0xFA57, uniform(-45.0, 38.5));
    }

    #[test]
    fn log_family_within_band() {
        assert_within_band::<Ln>(0xFA57, log_uniform);
        assert_within_band::<Log2>(0xFA57, log_uniform);
        assert_within_band::<Log10>(0xFA57, log_uniform);
    }

    #[test]
    fn hyper_within_band() {
        assert_within_band::<Sinh>(0xFA57, uniform(-88.0, 88.0));
        assert_within_band::<Cosh>(0xFA57, uniform(-88.0, 88.0));
    }

    #[test]
    fn log_cancellation_strip_within_band() {
        // The x -> 1 strip from both sides: the folded reduction must keep
        // relative accuracy where the dd kernel leans on double-doubles.
        for i in 1..2000u32 {
            for x in [1.0 + i as f64 * 2f64.powi(-24), 1.0 - i as f64 * 2f64.powi(-25)] {
                let got = Ln::eval::<f64>(x);
                let want = Ln::dd(x).to_f64();
                let rel = ((got - want) / want).abs();
                assert!(rel <= Ln::RUNG.band as f64 * 2f64.powi(-53), "ln({x:e}): rel {rel:e}");
            }
        }
    }

    #[test]
    fn trig_within_band() {
        assert_within_band::<Sinpi>(0x517A, uniform(-8_388_607.0, 8_388_607.0));
        assert_within_band::<Cospi>(0x517B, uniform(-16_777_215.0, 16_777_215.0));
        assert_within_band::<Sinpi>(0x9217, uniform(-8_388_607.0, 8_388_607.0));
        assert_within_band::<Cospi>(0x9218, uniform(-16_777_215.0, 16_777_215.0));
        // Small arguments, where N = 0 and the polynomial is the result.
        assert_within_band::<Sinpi>(0x517C, uniform(-1e-3, 1e-3));
        assert_within_band::<Cospi>(0x517D, uniform(-1e-2, 1e-2));
    }

    /// Both lanes of kernel `K` agree bit for bit *before* rounding: on
    /// `edges`, the placeholder `1.0`, and 4000 random inputs from `draw`
    /// that the kernel is fed.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    fn assert_lanes_agree<K: Kernel>(edges: &[f64], mut draw: impl FnMut(&mut XorShift64) -> f64) {
        use crate::lane::avx2::{Avx2, Avx2Isa};
        use crate::slice::LANES;
        let Some(isa) = Avx2Isa::detect() else {
            return;
        };
        let mut rng = XorShift64::new(0x1A4E);
        let mut xs = edges.to_vec();
        xs.push(1.0);
        xs.extend((0..4000).map(|_| draw(&mut rng)));
        for chunk in xs.chunks(LANES) {
            let mut x = [1.0; LANES];
            x[..chunk.len()].copy_from_slice(chunk);
            let mut y = [0.0; LANES];
            Avx2::enter(
                isa,
                #[inline(always)]
                || {
                    for g in 0..LANES / 4 {
                        K::eval(Avx2::load(isa, &x, g)).store(&mut y, g);
                    }
                },
            );
            for (&xi, &lane4) in chunk.iter().zip(&y) {
                let lane1 = K::eval::<f64>(xi);
                assert_eq!(lane4.to_bits(), lane1.to_bits(), "x = {xi:e}: avx2 {lane4:e} vs f64 {lane1:e}");
            }
        }
    }

    /// Every kernel's two lane instantiations agree before rounding (the
    /// batched tests compare rounded outputs, which can hide a kernel
    /// divergence). The edges are every branch and reduction edge: the
    /// exp-family domain bounds (`|k|` extremes), the log fold at
    /// `j = 128`, `|x| = 1/16 ± ulp` for sinh/cosh, sinpi's `n = 256` and
    /// cospi's `n = 0/1`.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn lane_agreement() {
        // Each edge, its neighbours, and their negations.
        let edges = |xs: &[f64]| -> Vec<f64> {
            xs.iter().flat_map(|&x| [x.next_down(), x, x.next_up()]).flat_map(|x| [x, -x]).collect()
        };
        let log_uniform = |rng: &mut XorShift64| rng.uniform_f64(1.0, 2.0) * rng.uniform_f64(-149.0, 127.0).exp2();
        assert_lanes_agree::<Exp>(&edges(&[106.0, 89.0, 90.0, 83.7, 0.5 / 64.0 * 2f64.ln()]), |r| {
            r.uniform_f64(-106.0, 90.0)
        });
        assert_lanes_agree::<Exp2>(&edges(&[151.0, 128.0, 120.5, 1.0 / 128.0]), |r| {
            r.uniform_f64(-151.0, 128.0)
        });
        assert_lanes_agree::<Exp10>(&edges(&[45.5, f64::from(38.6f32), 36.7]), |r| {
            r.uniform_f64(-45.5, 38.6)
        });
        // The fold: z = 1.99609375 rounds (z - 1)·128 = 127.5 up to 128.
        let logs = edges(&[0.998_046_875, 1.996_093_75, 1.0, 2f64.powi(-149), 2f64.powi(120), 1e38]);
        let logs: Vec<f64> = logs.into_iter().filter(|&x| x > 0.0).collect();
        assert_lanes_agree::<Ln>(&logs, log_uniform);
        assert_lanes_agree::<Log2>(&logs, log_uniform);
        assert_lanes_agree::<Log10>(&logs, log_uniform);
        let hyper = edges(&[0.0625, 1.0 / 8192.0, 90.0, 84.7]);
        assert_lanes_agree::<Sinh>(&hyper, |r| r.uniform_f64(-90.0, 90.0));
        assert_lanes_agree::<Cosh>(&hyper, |r| r.uniform_f64(-90.0, 90.0));
        let trig = |hi: f64| move |r: &mut XorShift64| r.uniform_f64(-hi, hi);
        assert_lanes_agree::<Sinpi>(&edges(&[0.5, 2.5, 1.0 / 512.0, 8_388_607.5]), trig(8_388_607.0));
        let cospi = edges(&[1.0 / 1024.0, 1.0 / 512.0, 2.0 / 512.0, 1.0 - 1.0 / 512.0, 7.77e-5]);
        assert_lanes_agree::<Cospi>(&cospi, trig(16_777_215.0));
    }

    #[test]
    fn kernels_handle_domain_edges() {
        // exp at the f32 overflow edge stays finite in double.
        assert!(Exp::eval::<f64>(88.9).is_finite());
        assert!(Exp2::eval::<f64>(-150.9) > 0.0);
        // Pure-poly log branch at the fold boundary.
        let y = Ln::eval::<f64>(0.998_046_875); // z = 1.99609375 exactly, j = 128 pre-fold
        assert!((y - 0.998_046_875f64.ln()).abs() < 1e-15);
        // sinh parity.
        assert_eq!(Sinh::eval::<f64>(-3.25), -Sinh::eval::<f64>(3.25));
    }
}
