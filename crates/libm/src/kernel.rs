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
//! This module reproduces that regime as a **certified two-tier design**:
//!
//! 1. every function gets a plain-double kernel (reduction, table lookup,
//!    Horner — no double-double, no `fma` libcalls) with a *statically
//!    derived* relative error bound `BAND · 2^-53`;
//! 2. the front end checks, with one bit-pattern test
//!    ([`crate::round::f32_round_safe`] / `posit32_round_safe`]), whether
//!    the double could lie within that bound of a rounding boundary of the
//!    target grid. If it cannot, rounding the double **is** the correct
//!    rounding and the fast result ships;
//! 3. otherwise (a few parts per million of inputs) the existing dd +
//!    round-to-odd kernel re-runs — Ziv's two-step strategy with a
//!    statically certified first step instead of a dynamically widened
//!    one.
//!
//! # One source per function
//!
//! Each function is one type implementing [`Kernel`]: its reduce → table
//! → polynomial → reconstruct as `eval<V: F64Lane, const PREFIX: bool>`,
//! its f32 batched domain as `dom<V>`, its dd kernel, and its two tiers'
//! Horner terms, bands and derived bounds. The scalar ladder
//! (`eval::<f64, _>`), the portable batched driver (the same, 64 lanes
//! per chunk) and the AVX2 stages (`eval::<Avx2, _>`) are instantiations
//! of that one function, so a band, prefix-length or constant change is
//! one edit. [`crate::lane`] says why the instantiations agree bit for
//! bit.
//!
//! # Certification argument
//!
//! Each kernel's bound is derived below from the classical op-by-op model
//! (every +,-,*,/ rounds with relative error <= 2^-53; exact steps are
//! called out) and then padded by 4-7 bits of margin. The bounds are
//! additionally validated empirically: the workspace tests compare the
//! two-tier output **bit-for-bit** against the pure dd kernels over the
//! exhaustive bfloat16 domain and million-input stratified f32/posit32
//! sweeps, and the tier-1 oracle tests (multi-precision Ziv oracle) cover
//! the composed pipeline. A band violation would surface as a bit
//! difference in those sweeps.
//!
//! Per-kernel error derivations (all relative to the final result, in
//! units of 2^-53; `u` denotes one rounding):
//!
//! | kernel | dominant terms | bound | BAND |
//! |---|---|---|---|
//! | `exp`   | reduction exact + 1u, poly ~4u, table combine ~2u | ~8u | 256 |
//! | `exp2`  | `t = x - k/64` exact (Sterbenz), rest as `exp` | ~8u | 256 |
//! | `exp10` | `x·LN10_HI` rounds before a 2^7 cancellation: ~2^7 u | ~160u | 1024 |
//! | `ln`    | `e·LN2_HI42` exact; cancellation vs table is Sterbenz-exact; poly-vs-result amplification <= 2.7x | ~16u | 256 |
//! | `log2`  | `e + table.0` exact in the cancelling case (integer + [1/2,1)) | ~16u | 256 |
//! | `log10` | `e·LOG10_2_HI` exact for the only cancelling `e = -1` | ~24u | 384 |
//! | `sinh`  | `(A - 1/A)` cancels <= coth(1/16) ~ 16x of ~4u | ~70u | 2048 |
//! | `cosh`  | `(A + 1/A)` never cancels | ~8u | 512 |
//! | `sinpi` | recombination terms share a sign; min result 0.0061 amplifies ~3u absolute | ~500u worst, pure-poly ~4u when `N = 0` | 2048 |
//! | `cospi` | Section 5 monotonic recombination, same shape as `sinpi` | ~500u | 2048 |
//!
//! The `sinpi`/`cospi` "amplification" rows deserve a note: for table
//! index `N = 0` (resp. `N' = 256`) the result *is* the polynomial value
//! and stays relatively accurate all the way to the smallest outputs; for
//! `N >= 1` the result is bounded below by `sin(pi/512) ~ 0.0061`, so a
//! ~3·2^-53 absolute error is at most ~500·2^-53 relative. The same
//! argument bounds `ln`/`log2`/`log10` away from their `x -> 1`
//! cancellation: the folded reduction (table index 128 -> exponent+1)
//! routes every input with `|log(x)| < ~0.0015` through the pure-poly
//! branch.
//!
//! All kernels require a **finite, in-domain** input (the front ends
//! filter specials first; each kernel's docs state the domain it is fed)
//! and produce a finite double; out-of-range results (f32-subnormal,
//! posit regime > 24) are rejected by the safety test itself, so the
//! kernels never need to reason about them.
//!
//! Each kernel's `FULL` rung carries the table's `BAND` and its
//! `DERIVED` bound: the table's worst-case kernel error rounded *up* to
//! a power of two. The difference `BAND - DERIVED` is the certification
//! **slack**: a perturbation that moves a kernel result by at most that
//! many f64 ulps keeps the total error within BAND, so an accepted
//! round-safe test still implies a correct cast. The `fault` feature's
//! in-band nudges are sized by it (see `crate::fault`).
//!
//! # Progressive prefix tier (tier 0)
//!
//! Each function also gets a **prefix kernel** (`eval::<_, true>`): the
//! same reduction and table combine, but evaluating only a low-degree
//! prefix of the polynomial (the progressive sets
//! `rlibm_core::polygen::gen_progressive` emits). The truncation error is
//! larger, so the prefix result is tested against a wider prefix band;
//! the rare escalations (the band is still a tiny fraction of the
//! 2^28-scale rounding boundary, so well under 1% of inputs) re-run the
//! full-degree kernel, and only *its* rejects reach dd. Output bits are
//! unchanged at every tier: both safety tests are sound for any in-band
//! error, so whichever tier ships, the cast is the correct rounding.
//!
//! Prefix bands, same 2^-53 relative units. Derivations mirror the full
//! table above with the truncated tail added. The prefix kernels also
//! read only the **hi words** of the packed tables (half the bytes, one
//! u64 decode per entry): the dropped lo word is < 2^-54 of its hi word,
//! which is under 1u for the exp family and at most a few hundred u for
//! the log family at the fold's ~0.0027 cancellation floor — noise
//! against every band below, and any excursion simply escalates a tier.
//!
//! | prefix kernel | dropped terms | added trunc error | PREFIX_BAND |
//! |---|---|---|---|
//! | `exp`/`exp2` | r^5/120.. | r^5/120 <= ~351u at |r| <= ln2/128 | 2048 |
//! | `exp10` | r^5/120.. | ~351u on top of the ~160u reduction | 4096 |
//! | logs | u^4 term of q on | u^6/6 abs; <= ~2300u rel after the fold's 0.0027 floor (x1.44 for log2) | 16384 |
//! | `sinh` | via prefix exp | ~351u x coth(1/16) ~ 16 | 16384 |
//! | `cosh` | via prefix exp | ~351u, no cancellation | 2048 |
//! | `sinpi`/`cospi` | C5, C7 of sp; C6 of cp | C5·r^5 ~ 7.3e-14 abs vs the 0.0061 result floor: ~110000u | 1 << 19 |
//!
//! The `PREFIX` rungs also carry the derived worst-case prefix errors,
//! rounded up to a power of two. The `fault` hook nudges by the
//! *full-band* slack (`BAND - DERIVED`) but at the prefix site, so
//! soundness needs `PREFIX_DERIVED + (BAND - DERIVED) <= PREFIX_BAND` —
//! asserted for every registry row by the registry tests.

use crate::dd::Dd;
use crate::float::{exp as fexp, hyper, log, trig};
use crate::lane::F64Lane;
use crate::registry::Rung;
use crate::tables as t;

/// One function's fast kernel: the single source of its plain-double
/// math for every lane and tier.
pub(crate) trait Kernel {
    /// The truncated-polynomial tier.
    const PREFIX: Rung;
    /// The full-degree tier.
    const FULL: Rung;

    /// The kernel at the prefix (`PREFIX = true`) or full tier, on
    /// in-domain lanes (or the batched placeholder `1.0`).
    fn eval<V: F64Lane, const PREFIX: bool>(x: V) -> V;

    /// The f32 entry's fast-path domain on widened f32 lanes: the lanes
    /// the f32 entry point sends to the ladder (NaN fails).
    fn dom<V: F64Lane>(x: V) -> V::Mask;

    /// The dd kernel of the ladder's last rung.
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

/// Degree-7 Taylor for `e^r`, `|r| <= ln2/128`, as Horner
/// `1 + r·(1 + r·(1/2 + …))`: the relative error stays a few ulps even as
/// `r -> 0`. Truncation `r^8/8! < 2^-75`; the prefix tier keeps the first
/// five terms (truncation `r^5/120 <= ~351·2^-53`).
const EXP_TAYLOR: [f64; 8] =
    [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0, 1.0 / 720.0, 1.0 / 5040.0];

/// `2^(k/64) · e^r`: table gather at `j = k mod 64` (`k & 63`), Horner,
/// exponent scale at `i = k div 64` (`k >> 6`). The full tier folds the
/// table's `lo` word in with one add (`p ~ 1`, so `tl·p ~ tl`),
/// recovering ~half a bit; the prefix tier reads the hi word alone (the
/// dropped lo word is < 2^-54·th, under 1u against its 2048u band).
#[inline(always)]
fn exp_combine<V: F64Lane, const PREFIX: bool>(k: V::Int, r: V) -> V {
    let j = V::int_and(k, 63);
    let scale = V::pow2i(V::int_sra::<6>(k));
    if PREFIX {
        V::gather_hi(&t::EXP2_64, j) * horner(r, &EXP_TAYLOR[..5]) * scale
    } else {
        let (th, tl) = V::gather_packed(&t::EXP2_64, j);
        (th * horner(r, &EXP_TAYLOR) + tl) * scale
    }
}

/// `e^x`. Fed `-106 <= x <= 90`: the f32 entry's `[-106, 89]`, the posit
/// entry's `|x| <= LN_MAXPOS + 0.5`, and `|x| <= 90` from [`Sinh`] /
/// [`Cosh`]. There `|k| < 2^14`, which keeps `k·LN2_64_HI` exact
/// (39-bit constant x 14-bit integer), and `pow2i`'s exponent stays
/// within `[-154, 130]`.
pub(crate) struct Exp;

impl Kernel for Exp {
    const PREFIX: Rung = Rung { terms: 5, band: 2048, derived: 512 };
    const FULL: Rung = Rung { terms: 8, band: 256, derived: 16 };

    #[inline(always)]
    fn eval<V: F64Lane, const PREFIX: bool>(x: V) -> V {
        let k = (x * (64.0 * t::LOG2_E)).round_even();
        let kf = V::int_f64(k);
        // x - k·LN2_64_HI is exact (cancellation => Sterbenz); the MID word is
        // a power of two, so its product is exact and the subtraction rounds
        // once: |delta r| <= ulp(ln2/128) ~ 2^-60.
        let r = (x - kf * t::LN2_64_HI) - kf * t::LN2_64_MID;
        exp_combine::<V, PREFIX>(k, r)
    }

    #[inline(always)]
    fn dom<V: F64Lane>(x: V) -> V::Mask {
        x.ge(-106.0) & x.le(89.0)
    }

    fn dd(x: f64) -> Dd {
        fexp::exp_kernel(x)
    }
}

/// `2^x`. Fed `-151 <= x < 128`: the f32 entry's domain (the posit
/// entry's `|x| <= 120.5` lies inside it).
pub(crate) struct Exp2;

impl Kernel for Exp2 {
    const PREFIX: Rung = Rung { terms: 5, band: 2048, derived: 512 };
    const FULL: Rung = Rung { terms: 8, band: 256, derived: 16 };

    #[inline(always)]
    fn eval<V: F64Lane, const PREFIX: bool>(x: V) -> V {
        let k = (x * 64.0).round_even();
        let tt = x - V::int_f64(k) / 64.0; // exact: shared grid, Sterbenz
        let r = tt * t::LN2_HI + tt * t::LN2_LO;
        exp_combine::<V, PREFIX>(k, r)
    }

    #[inline(always)]
    fn dom<V: F64Lane>(x: V) -> V::Mask {
        x.ge(-151.0) & x.lt(128.0)
    }

    fn dd(x: f64) -> Dd {
        fexp::exp2_kernel(x)
    }
}

/// `10^x`. Fed `-45.5 <= x <= 38.6` (the f32 entry's domain; the posit
/// entry's `|x| <= LOG10_MAXPOS + 0.5` lies inside it), so `|k| < 2^14`.
///
/// The reduced argument cancels ~7 bits of `x·ln10`, and `x·LN10_HI`
/// rounds *before* the cancellation — the dominant ~2^-46 relative error
/// in the table above, absorbed by the exp10 band.
pub(crate) struct Exp10;

impl Kernel for Exp10 {
    const PREFIX: Rung = Rung { terms: 5, band: 4096, derived: 1024 };
    const FULL: Rung = Rung { terms: 8, band: 1024, derived: 256 };

    #[inline(always)]
    fn eval<V: F64Lane, const PREFIX: bool>(x: V) -> V {
        let k = (x * (64.0 * t::LOG2_10)).round_even();
        let kf = V::int_f64(k);
        let b = kf * t::LN2_64_HI; // exact (|k| < 2^14)
        let r = (x * t::LN10_HI - b) + (x * t::LN10_LO - kf * t::LN2_64_MID);
        exp_combine::<V, PREFIX>(k, r)
    }

    #[inline(always)]
    fn dom<V: F64Lane>(x: V) -> V::Mask {
        // 38.6 is the f32 literal the entry compares against, widened.
        x.ge(-45.5) & x.le(f64::from(38.6f32))
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
/// accuracy for small `u`), with `q` in Horner form. The full tier's `q`
/// runs to `-u^6/8` (truncation `u^9/9`); the prefix tier's stops after
/// `u^3/5` (truncation `u^6/6` absolute).
#[inline(always)]
fn log1p<V: F64Lane, const PREFIX: bool>(u: V) -> V {
    const Q: [f64; 7] = [-0.5, 1.0 / 3.0, -0.25, 0.2, -1.0 / 6.0, 1.0 / 7.0, -0.125];
    let q = horner(u, if PREFIX { &Q[..4] } else { &Q });
    u + (u * u) * q
}

/// Natural logarithm. Fed positive finite `x`: the f32 entry's
/// `0 < x < inf` (subnormals widen to normal doubles) and the posit
/// entry's `x > 0`.
pub(crate) struct Ln;

impl Kernel for Ln {
    const PREFIX: Rung = Rung { terms: 5, band: 16384, derived: 4096 };
    const FULL: Rung = Rung { terms: 8, band: 256, derived: 32 };

    #[inline(always)]
    fn eval<V: F64Lane, const PREFIX: bool>(x: V) -> V {
        let (e, j, u) = log_reduce(x);
        let p = log1p::<V, PREFIX>(u);
        // e·LN2_HI42 is exact (42-bit constant x |e| <= 2^11); when it
        // cancels against the table value the sum is Sterbenz-exact.
        if PREFIX {
            // Hi-only table reads throughout the log-family prefix tier: the
            // dropped lo word is < 2^-54 absolute, ~200u relative at the fold's
            // cancellation floor — far inside the 16384u prefix band.
            let c = e * t::LN2_HI42 + V::gather_hi(&t::LN_F, j);
            c + (p + e * t::LN2_MID)
        } else {
            let (fh, fl) = V::gather_packed(&t::LN_F, j);
            let c = e * t::LN2_HI42 + fh;
            let lo = fl + e * t::LN2_MID;
            c + (p + lo)
        }
    }

    /// `0 < x < inf`, the domain of all three logarithms.
    #[inline(always)]
    fn dom<V: F64Lane>(x: V) -> V::Mask {
        x.gt(0.0) & x.lt(f64::INFINITY)
    }

    fn dd(x: f64) -> Dd {
        log::ln_kernel(x)
    }
}

/// Base-2 logarithm. Fed positive finite `x`, as [`Ln`].
pub(crate) struct Log2;

impl Kernel for Log2 {
    const PREFIX: Rung = Rung { terms: 5, band: 16384, derived: 4096 };
    const FULL: Rung = Rung { terms: 8, band: 256, derived: 32 };

    #[inline(always)]
    fn eval<V: F64Lane, const PREFIX: bool>(x: V) -> V {
        let (e, j, u) = log_reduce(x);
        let p = log1p::<V, PREFIX>(u);
        // Integer + [0, 1): exact whenever it cancels (e = -1, j near 128).
        if PREFIX {
            let c = e + V::gather_hi(&t::LOG2_F, j);
            c + (p * t::INV_LN2_HI + p * t::INV_LN2_LO)
        } else {
            let (fh, fl) = V::gather_packed(&t::LOG2_F, j);
            let c = e + fh;
            c + (p * t::INV_LN2_HI + (fl + p * t::INV_LN2_LO))
        }
    }

    #[inline(always)]
    fn dom<V: F64Lane>(x: V) -> V::Mask {
        Ln::dom(x)
    }

    fn dd(x: f64) -> Dd {
        log::log2_kernel(x)
    }
}

/// Base-10 logarithm. Fed positive finite `x`, as [`Ln`].
pub(crate) struct Log10;

impl Kernel for Log10 {
    const PREFIX: Rung = Rung { terms: 5, band: 16384, derived: 4096 };
    const FULL: Rung = Rung { terms: 8, band: 384, derived: 64 };

    #[inline(always)]
    fn eval<V: F64Lane, const PREFIX: bool>(x: V) -> V {
        let (e, j, u) = log_reduce(x);
        let p = log1p::<V, PREFIX>(u);
        // The only cancelling exponent is e = -1, where the product is exact.
        if PREFIX {
            let c = e * t::LOG10_2_HI + V::gather_hi(&t::LOG10_F, j);
            c + (p * t::INV_LN10_HI + (e * t::LOG10_2_LO + p * t::INV_LN10_LO))
        } else {
            let (fh, fl) = V::gather_packed(&t::LOG10_F, j);
            let c = e * t::LOG10_2_HI + fh;
            c + (p * t::INV_LN10_HI + ((fl + e * t::LOG10_2_LO) + p * t::INV_LN10_LO))
        }
    }

    #[inline(always)]
    fn dom<V: F64Lane>(x: V) -> V::Mask {
        Ln::dom(x)
    }

    fn dd(x: f64) -> Dd {
        log::log10_kernel(x)
    }
}

// ---------------------------------------------------------------------
// hyperbolic family
// ---------------------------------------------------------------------

/// `sinh(x)`. Fed `2^-13 <= |x| <= 90`: the f32 entry cuts at `2^-12`
/// and `90`, the posit entry at `2^-13` and `LN_MAXPOS + 1.5` (below the
/// cuts both entries return `x` itself). Below `2^-4` the odd Taylor
/// series avoids the `A - 1/A` cancellation entirely, at full degree in
/// both tiers (it is already cheap, and its error stays inside even the
/// full band); above it the cancellation is bounded by `coth(1/16) ~ 16`,
/// and the prefix tier runs the prefix [`Exp`].
pub(crate) struct Sinh;

impl Kernel for Sinh {
    const PREFIX: Rung = Rung { terms: 5, band: 16384, derived: 8192 };
    const FULL: Rung = Rung { terms: 8, band: 2048, derived: 128 };

    #[inline(always)]
    fn eval<V: F64Lane, const PREFIX: bool>(x: V) -> V {
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
                let big = Exp::eval::<V, PREFIX>(a);
                (big - big.splat(1.0) / big) * 0.5
            },
        );
        signed(x.lt(0.0), v)
    }

    #[inline(always)]
    fn dom<V: F64Lane>(x: V) -> V::Mask {
        let a = x.abs();
        a.le(90.0) & a.ge(1.0 / 4096.0)
    }

    fn dd(x: f64) -> Dd {
        hyper::sinh_kernel(x)
    }
}

/// `cosh(x)`. Fed `|x| <= 90`: the f32 entry's `2^-13 <= |x| <= 90` and
/// the posit entry's `|x| <= LN_MAXPOS + 1.5`, zero included. `A + 1/A`
/// never cancels; the branches and tiers are as in [`Sinh`].
pub(crate) struct Cosh;

impl Kernel for Cosh {
    const PREFIX: Rung = Rung { terms: 5, band: 2048, derived: 512 };
    const FULL: Rung = Rung { terms: 8, band: 512, derived: 16 };

    #[inline(always)]
    fn eval<V: F64Lane, const PREFIX: bool>(x: V) -> V {
        const EVEN: [f64; 5] = [1.0, 0.5, 1.0 / 24.0, 1.0 / 720.0, 1.0 / 40_320.0];
        let a = x.abs();
        V::select(
            a.lt(0.0625),
            #[inline(always)]
            || horner(a * a, &EVEN),
            #[inline(always)]
            || {
                let big = Exp::eval::<V, PREFIX>(a);
                (big + big.splat(1.0) / big) * 0.5
            },
        )
    }

    #[inline(always)]
    fn dom<V: F64Lane>(x: V) -> V::Mask {
        let a = x.abs();
        a.le(90.0) & a.ge(1.0 / 8192.0)
    }

    fn dd(x: f64) -> Dd {
        hyper::cosh_kernel(x)
    }
}

// ---------------------------------------------------------------------
// sinpi / cospi
// ---------------------------------------------------------------------

/// `sin(pi r)` for exact `r in [0, 1/512]`, relative accurate as
/// `r -> 0` (leading term rounds once). The prefix tier drops `C5`, `C7`.
#[inline(always)]
fn sinpi_poly<V: F64Lane, const PREFIX: bool>(r: V) -> V {
    const TAIL: [f64; 3] = [t::SINPI_C3, t::SINPI_C5, t::SINPI_C7];
    let r2 = r * r;
    let tail = horner(r2, if PREFIX { &TAIL[..1] } else { &TAIL });
    r * t::PI_HI + (r * t::PI_LO + r * r2 * tail)
}

/// `cos(pi r)` for exact `r in [0, 1/512]`. The prefix tier drops `C6`.
#[inline(always)]
fn cospi_poly<V: F64Lane, const PREFIX: bool>(r: V) -> V {
    const TAIL: [f64; 2] = [t::COSPI_C4, t::COSPI_C6];
    let r2 = r * r;
    let tail = horner(r2, if PREFIX { &TAIL[..1] } else { &TAIL });
    (r2 * t::COSPI_C2_HI + (r2 * t::COSPI_C2_LO + r2 * r2 * tail)) + 1.0
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

/// `sin(pi x)`. Fed non-integer `2^-36 <= |x| < 2^23` (f32 only).
/// Mirrors `sinpi_kernel`: the table's `lo` words are folded with two
/// cheap products (`corr`), recovering the ~2^-54 they carry. On top of
/// the truncated polynomials, the prefix tier drops the table `lo` words
/// and the `corr` fold entirely: the lo words carry ~2^-53 relative,
/// invisible against the certified sinpi prefix band of
/// `2^19 * 2^-53 = 2^-34`, and skipping them halves the tier's
/// packed-table traffic (one u64 load + hi decode per entry).
pub(crate) struct Sinpi;

impl Kernel for Sinpi {
    const PREFIX: Rung = Rung { terms: 2, band: 1 << 19, derived: 1 << 17 };
    const FULL: Rung = Rung { terms: 4, band: 2048, derived: 1024 };

    #[inline(always)]
    fn eval<V: F64Lane, const PREFIX: bool>(x: V) -> V {
        let (k, l) = mod2_split(x.abs());
        let lp = V::blend(l.gt(0.5), l.splat(1.0) - l, l);
        let n = (lp * 512.0).trunc_pos(); // 0..=256
        let r = lp - V::int_f64(n) / 512.0; // exact
        let sp = sinpi_poly::<V, PREFIX>(r);
        let cp = cospi_poly::<V, PREFIX>(r);
        // cos(pi n/512) is sinpi table entry 256 - n.
        let mirror = V::int_rsub(256, n);
        // N = 0 has (sh, sl) = (0, 0) and (ch, cl) = (1, 0): v = sp exactly,
        // keeping relative accuracy for the smallest results.
        let v = if PREFIX {
            let sh = V::gather_hi(&t::SINPI_T, n);
            let ch = V::gather_hi(&t::SINPI_T, mirror);
            sh * cp + ch * sp
        } else {
            let (sh, sl) = V::gather_packed(&t::SINPI_T, n);
            let (ch, cl) = V::gather_packed(&t::SINPI_T, mirror);
            let corr = sl * cp + cl * sp;
            sh * cp + (ch * sp + corr)
        };
        signed(x.lt(0.0) ^ k, v)
    }

    #[inline(always)]
    fn dom<V: F64Lane>(x: V) -> V::Mask {
        let a = x.abs();
        a.lt(8_388_608.0) & a.ge(1.0 / 68_719_476_736.0) & !a.is_integral()
    }

    fn dd(x: f64) -> Dd {
        trig::sinpi_kernel_signed(x)
    }
}

/// `cos(pi x)`. Fed `7.77e-5 <= |x| < 2^24` with `2|x|` non-integer
/// (f32 only). Section 5's monotonic recombination (`L' = N'/512 - R`,
/// both terms share a sign); `N' = 256` has table value 0 and
/// degenerates to the pure `sinpi` polynomial, keeping relative accuracy
/// near the zeros at half-integers. The prefix tier reads hi words only,
/// as [`Sinpi`]'s does.
pub(crate) struct Cospi;

impl Kernel for Cospi {
    const PREFIX: Rung = Rung { terms: 3, band: 1 << 19, derived: 1 << 17 };
    const FULL: Rung = Rung { terms: 4, band: 2048, derived: 1024 };

    #[inline(always)]
    fn eval<V: F64Lane, const PREFIX: bool>(x: V) -> V {
        let (k, l) = mod2_split(x.abs());
        let m = l.gt(0.5);
        let lp = V::blend(m, l.splat(1.0) - l, l);
        let n = (lp * 512.0).trunc_pos(); // 0..=255 (lp < 1/2 here)
        let v = V::select(
            V::int_eq(n, 0),
            #[inline(always)]
            || cospi_poly::<V, PREFIX>(lp),
            #[inline(always)]
            || {
                let np = V::int_add(n, 1);
                let r = V::int_f64(np) / 512.0 - lp; // exact
                let sp = sinpi_poly::<V, PREFIX>(r);
                let cp = cospi_poly::<V, PREFIX>(r);
                let mirror = V::int_rsub(256, np);
                if PREFIX {
                    let ch = V::gather_hi(&t::SINPI_T, mirror);
                    let sh = V::gather_hi(&t::SINPI_T, np);
                    ch * cp + sh * sp
                } else {
                    let (ch, cl) = V::gather_packed(&t::SINPI_T, mirror);
                    let (sh, sl) = V::gather_packed(&t::SINPI_T, np);
                    let corr = cl * cp + sl * sp;
                    ch * cp + (sh * sp + corr)
                }
            },
        );
        signed(k ^ m, v)
    }

    #[inline(always)]
    fn dom<V: F64Lane>(x: V) -> V::Mask {
        // An integral 2a catches integers AND half-integers (both
        // handled by the scalar front's exact special cases).
        let a = x.abs();
        a.ge(7.77e-5) & a.lt(16_777_216.0) & !(a * 2.0).is_integral()
    }

    fn dd(x: f64) -> Dd {
        trig::cospi_kernel_signed(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlibm_fp::rng::XorShift64;

    /// Checks the kernel against its dd kernel on 20 000 inputs from
    /// `draw` in its f32 domain: the observed relative error must stay
    /// within the tier's certified band (the dd kernel is ~2^-85
    /// accurate, so the difference is an excellent proxy for the fast
    /// kernel's true error).
    fn assert_within_band<K: Kernel, const PREFIX: bool>(seed: u64, draw: impl Fn(&mut XorShift64) -> f64) {
        let band = if PREFIX { K::PREFIX.band } else { K::FULL.band };
        let mut rng = XorShift64::new(seed);
        for _ in 0..20_000 {
            let x = draw(&mut rng);
            if !K::dom(x) {
                continue;
            }
            let got = K::eval::<f64, PREFIX>(x);
            let want = K::dd(x).to_f64();
            let rel = ((got - want) / want).abs();
            assert!(
                rel <= band as f64 * 2f64.powi(-53),
                "kernel out of band at x = {x:e}: rel = {rel:e}, band = {band}"
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
        assert_within_band::<Exp, false>(0xFA57, uniform(-87.0, 88.0));
        assert_within_band::<Exp2, false>(0xFA57, uniform(-149.0, 127.9));
        assert_within_band::<Exp10, false>(0xFA57, uniform(-45.0, 38.5));
    }

    #[test]
    fn log_family_within_band() {
        assert_within_band::<Ln, false>(0xFA57, log_uniform);
        assert_within_band::<Log2, false>(0xFA57, log_uniform);
        assert_within_band::<Log10, false>(0xFA57, log_uniform);
    }

    #[test]
    fn hyper_within_band() {
        assert_within_band::<Sinh, false>(0xFA57, uniform(-88.0, 88.0));
        assert_within_band::<Cosh, false>(0xFA57, uniform(-88.0, 88.0));
    }

    #[test]
    fn log_cancellation_strip_within_band() {
        // The x -> 1 strip from both sides: the folded reduction must keep
        // relative accuracy where the dd kernel leans on double-doubles.
        for i in 1..2000u32 {
            for x in [1.0 + i as f64 * 2f64.powi(-24), 1.0 - i as f64 * 2f64.powi(-25)] {
                let got = Ln::eval::<f64, false>(x);
                let want = Ln::dd(x).to_f64();
                let rel = ((got - want) / want).abs();
                assert!(rel <= Ln::FULL.band as f64 * 2f64.powi(-53), "ln({x:e}): rel {rel:e}");
            }
        }
    }

    #[test]
    fn trig_within_band() {
        assert_within_band::<Sinpi, false>(0x517A, uniform(-8_388_607.0, 8_388_607.0));
        assert_within_band::<Cospi, false>(0x517B, uniform(-16_777_215.0, 16_777_215.0));
        // Small arguments, where N = 0 and the polynomial is the result.
        assert_within_band::<Sinpi, false>(0x517C, uniform(-1e-3, 1e-3));
        assert_within_band::<Cospi, false>(0x517D, uniform(-1e-2, 1e-2));
    }

    #[test]
    fn prefix_kernels_within_prefix_bands() {
        assert_within_band::<Exp, true>(0xFA57, uniform(-87.0, 88.0));
        assert_within_band::<Exp2, true>(0xFA57, uniform(-149.0, 127.9));
        assert_within_band::<Exp10, true>(0xFA57, uniform(-45.0, 38.5));
        assert_within_band::<Ln, true>(0xFA57, log_uniform);
        assert_within_band::<Log2, true>(0xFA57, log_uniform);
        assert_within_band::<Log10, true>(0xFA57, log_uniform);
        assert_within_band::<Sinh, true>(0xFA57, uniform(-88.0, 88.0));
        assert_within_band::<Cosh, true>(0xFA57, uniform(-88.0, 88.0));
        assert_within_band::<Sinpi, true>(0x9217, uniform(-8_388_607.0, 8_388_607.0));
        assert_within_band::<Cospi, true>(0x9218, uniform(-16_777_215.0, 16_777_215.0));
    }

    /// Both lanes of kernel `K` agree bit for bit *before* rounding, at
    /// both tiers: on `edges`, the placeholder `1.0`, and 4000 random
    /// inputs from `draw` that the kernel is fed.
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
            let (mut prefix, mut full) = ([0.0; LANES], [0.0; LANES]);
            Avx2::enter(
                isa,
                #[inline(always)]
                || {
                    for g in 0..LANES / 4 {
                        let v = Avx2::load(isa, &x, g);
                        K::eval::<Avx2, true>(v).store(&mut prefix, g);
                        K::eval::<Avx2, false>(v).store(&mut full, g);
                    }
                },
            );
            for (i, &xi) in chunk.iter().enumerate() {
                for (tier, lane4, lane1) in [
                    ("prefix", prefix[i], K::eval::<f64, true>(xi)),
                    ("full", full[i], K::eval::<f64, false>(xi)),
                ] {
                    assert_eq!(
                        lane4.to_bits(),
                        lane1.to_bits(),
                        "{tier} tier at x = {xi:e}: avx2 {lane4:e} vs f64 {lane1:e}"
                    );
                }
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
        assert!(Exp::eval::<f64, false>(88.9).is_finite());
        assert!(Exp2::eval::<f64, false>(-150.9) > 0.0);
        // Pure-poly log branch at the fold boundary.
        let y = Ln::eval::<f64, false>(0.998_046_875); // z = 1.99609375 exactly, j = 128 pre-fold
        assert!((y - 0.998_046_875f64.ln()).abs() < 1e-15);
        // sinh parity.
        assert_eq!(Sinh::eval::<f64, false>(-3.25), -Sinh::eval::<f64, false>(3.25));
    }
}
