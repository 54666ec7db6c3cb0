//! The single source of truth for the kernel lookup tables and
//! double-double constants shipped in `rlibm-math`.
//!
//! Two consumers share this module: the `gen_tables` bin (human-readable
//! reference dump) and `crates/libm/build.rs` (the bit-packed tables the
//! runtime actually links, pinned by a committed checksum). Every entry
//! is computed with the multi-precision oracle at the caller's precision
//! (160 bits in both consumers) and decomposed into a hi/lo double pair
//! (`hi = RN(v)`, `lo = RN(v - hi)`), so the pair represents the true
//! value to ~2^-106 relative error.

use crate::{consts, elem, MpFloat};

/// One hi/lo pair per table slot, plus the named scalar constants in a
/// fixed emission order (the checksum hashes them in this order).
pub struct TableData {
    /// `2^(j/64)` for `j in 0..64`.
    pub exp2_64: Vec<(f64, f64)>,
    /// `ln(1 + j/128)` for `j in 0..=128` (`j == 0` is exactly zero).
    pub ln_f: Vec<(f64, f64)>,
    /// `log2(1 + j/128)` for `j in 0..=128`.
    pub log2_f: Vec<(f64, f64)>,
    /// `log10(1 + j/128)` for `j in 0..=128`.
    pub log10_f: Vec<(f64, f64)>,
    /// `sin(pi n/512)` for `n in 0..=256`.
    pub sinpi_t: Vec<(f64, f64)>,
    /// `cos(pi n/512)` for `n in 0..=256`. Bit-for-bit the mirror of
    /// `sinpi_t` (`cospi_t[n] == sinpi_t[256 - n]`); kept here so both
    /// consumers can verify the identity before relying on it.
    pub cospi_t: Vec<(f64, f64)>,
    /// `(name, doc, value)` scalar constants, emission order.
    pub consts: Vec<(&'static str, &'static str, f64)>,
}

fn dd(v: &MpFloat, prec: u32) -> (f64, f64) {
    let hi = v.to_f64();
    let lo = v.sub(&MpFloat::from_f64(hi, prec), prec).to_f64();
    (hi, lo)
}

/// Computes every table and constant at `prec` bits.
pub fn compute(prec: u32) -> TableData {
    let exp2_64: Vec<(f64, f64)> = (0..64)
        .map(|j| dd(&elem::exp2(j as f64 / 64.0, prec), prec))
        .collect();

    let mut ln_f = Vec::with_capacity(129);
    let mut log2_f = Vec::with_capacity(129);
    let mut log10_f = Vec::with_capacity(129);
    for j in 0..=128 {
        let f = 1.0 + j as f64 / 128.0;
        if j == 0 {
            let z = MpFloat::zero(prec);
            ln_f.push(dd(&z, prec));
            log2_f.push(dd(&z, prec));
            log10_f.push(dd(&z, prec));
        } else {
            ln_f.push(dd(&elem::ln(f, prec), prec));
            log2_f.push(dd(&elem::log2(f, prec), prec));
            log10_f.push(dd(&elem::log10(f, prec), prec));
        }
    }

    let sinpi_t: Vec<(f64, f64)> = (0..=256)
        .map(|n| dd(&elem::sinpi(n as f64 / 512.0, prec), prec))
        .collect();
    let cospi_t: Vec<(f64, f64)> = (0..=256)
        .map(|n| dd(&elem::cospi(n as f64 / 512.0, prec), prec))
        .collect();

    let ln2 = consts::ln2(prec);
    let ln10 = consts::ln10(prec);
    let pi = consts::pi(prec);
    let one = MpFloat::from_u64(1, prec);
    let inv_ln2 = one.div(&ln2, prec);
    let inv_ln10 = one.div(&ln10, prec);
    let log10_2 = ln2.div(&ln10, prec);

    // ln2/64 split into an exact 39-bit head plus two corrections. The
    // first correction is rounded to 39 bits too, so both `k * LN2_64_HI`
    // and `k * LN2_64_MID` are exact for |k| < 2^14 and the fast kernels'
    // reductions round once; the second carries the rest (< 2^-87).
    let ln2_64 = ln2.mul_pow2(-6);
    let hi39 = ln2_64.round(39);
    let rest = ln2_64.sub(&hi39, prec);
    let mid39 = rest.round(39);
    let mid = mid39.to_f64();
    let rest2 = rest.sub(&mid39, prec);

    // Same split for ln2 itself at 42 bits (the log kernels' `e * LN2`).
    let ln2_hi42 = ln2.round(42);
    let ln2_rest = ln2.sub(&ln2_hi42, prec);
    let (ln2_mid, _) = dd(&ln2_rest, prec);
    let ln2_rest2 = ln2_rest.sub(&MpFloat::from_f64(ln2_mid, prec), prec);

    let pi2 = pi.mul(&pi, prec);
    let pi3 = pi2.mul(&pi, prec);
    let pi4 = pi2.mul(&pi2, prec);
    let pi5 = pi4.mul(&pi, prec);
    let pi6 = pi4.mul(&pi2, prec);
    let pi7 = pi6.mul(&pi, prec);

    let (ln2_hi, ln2_lo) = dd(&ln2, prec);
    let (ln10_hi, ln10_lo) = dd(&ln10, prec);
    let (pi_hi, pi_lo) = dd(&pi, prec);
    let (inv_ln2_hi, inv_ln2_lo) = dd(&inv_ln2, prec);
    let (inv_ln10_hi, inv_ln10_lo) = dd(&inv_ln10, prec);
    let (log10_2_hi, log10_2_lo) = dd(&log10_2, prec);
    let (cospi_c2_hi, cospi_c2_lo) = dd(&pi2.mul_pow2(-1).neg(), prec);

    let consts = vec![
        ("LN2_HI", "`ln 2` (hi part).", ln2_hi),
        ("LN2_LO", "`ln 2` (lo part; hi + lo is exact to ~2^-106).", ln2_lo),
        ("LN10_HI", "`ln 10` (hi part).", ln10_hi),
        ("LN10_LO", "`ln 10` (lo part; hi + lo is exact to ~2^-106).", ln10_lo),
        ("PI_HI", "`pi` (hi part).", pi_hi),
        ("PI_LO", "`pi` (lo part; hi + lo is exact to ~2^-106).", pi_lo),
        ("INV_LN2_HI", "`1 / ln 2` (hi part).", inv_ln2_hi),
        ("INV_LN2_LO", "`1 / ln 2` (lo part; hi + lo is exact to ~2^-106).", inv_ln2_lo),
        ("INV_LN10_HI", "`1 / ln 10` (hi part).", inv_ln10_hi),
        ("INV_LN10_LO", "`1 / ln 10` (lo part; hi + lo is exact to ~2^-106).", inv_ln10_lo),
        ("LOG10_2_HI", "`log10(2) = ln2 / ln10` (hi part).", log10_2_hi),
        ("LOG10_2_LO", "`log10(2)` (lo part; hi + lo is exact to ~2^-106).", log10_2_lo),
        (
            "LN2_64_HI",
            "`ln2/64` rounded to 39 bits: `k * LN2_64_HI` is exact for `|k| < 2^14`.",
            hi39.to_f64(),
        ),
        (
            "LN2_64_MID",
            "`ln2/64 - LN2_64_HI` rounded to 39 bits, first correction: `k * LN2_64_MID` is exact for `|k| < 2^14`.",
            mid,
        ),
        ("LN2_64_LO", "`ln2/64 - LN2_64_HI - LN2_64_MID`, second correction.", rest2.to_f64()),
        (
            "LN2_HI42",
            "`ln 2` rounded to 42 bits: `e * LN2_HI42` is exact for `|e| < 2^11`.",
            ln2_hi42.to_f64(),
        ),
        ("LN2_MID", "`ln2 - LN2_HI42`, first correction.", ln2_mid),
        ("LN2_LO42", "`ln2 - LN2_HI42 - LN2_MID`, second correction.", ln2_rest2.to_f64()),
        (
            "SINPI_C3",
            "`-pi^3/6` (sinpi cubic coefficient).",
            pi3.div_u64(6, prec).neg().to_f64(),
        ),
        ("SINPI_C5", "`pi^5/120`.", pi5.div_u64(120, prec).to_f64()),
        ("SINPI_C7", "`-pi^7/5040`.", pi7.div_u64(5040, prec).neg().to_f64()),
        ("COSPI_C2_HI", "`-pi^2/2` (cospi quadratic coefficient) (hi part).", cospi_c2_hi),
        (
            "COSPI_C2_LO",
            "`-pi^2/2` (lo part; hi + lo is exact to ~2^-106).",
            cospi_c2_lo,
        ),
        ("COSPI_C4", "`pi^4/24`.", pi4.div_u64(24, prec).to_f64()),
        ("COSPI_C6", "`-pi^6/720`.", pi6.div_u64(720, prec).neg().to_f64()),
        (
            "LOG2_10",
            "`log2(10)` (plain double; only steers integer k).",
            ln10.div(&ln2, prec).to_f64(),
        ),
        (
            "LOG2_E",
            "`log2(e)` (plain double; only steers integer k).",
            one.div(&ln2, prec).to_f64(),
        ),
    ];

    TableData { exp2_64, ln_f, log2_f, log10_f, sinpi_t, cospi_t, consts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_anchor_values() {
        let t = compute(96);
        assert_eq!(t.exp2_64.len(), 64);
        assert_eq!(t.ln_f.len(), 129);
        assert_eq!(t.sinpi_t.len(), 257);
        assert_eq!(t.exp2_64[0], (1.0, 0.0));
        assert_eq!(t.ln_f[0], (0.0, 0.0));
        assert_eq!(t.sinpi_t[256].0, 1.0);
        // cospi is the bit-exact mirror of sinpi — the packing relies on it.
        for n in 0..=256 {
            assert_eq!(t.cospi_t[n].0.to_bits(), t.sinpi_t[256 - n].0.to_bits(), "hi at {n}");
            assert_eq!(t.cospi_t[n].1.to_bits(), t.sinpi_t[256 - n].1.to_bits(), "lo at {n}");
        }
        let pi_hi = t.consts.iter().find(|c| c.0 == "PI_HI").map(|c| c.2);
        assert_eq!(pi_hi, Some(core::f64::consts::PI));
    }
}
