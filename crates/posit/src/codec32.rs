//! Dedicated posit32 (`es = 2`) codec behind [`crate::Posit32::to_f64`]
//! and [`crate::Posit32::from_f64`].
//!
//! Every posit32 value is an `f64` with at most 27 fraction bits and a
//! scale within ±120, so the conversions reduce to bit assembly: decode
//! writes the `f64` bit pattern directly, encode rounds the `f64`
//! fraction through one `u64` window. Neither builds a
//! [`crate::Decoded`], a 128-bit stream or a `powi` scale. The generic
//! [`crate::PositFormat`] path stays the reference both are checked
//! against (`tests/codec32.rs`) and the only path for `Posit16`.

/// The NaR pattern (sign bit alone).
const NAR: u32 = 0x8000_0000;
/// The largest positive pattern (`maxpos = 2^120`).
const MAXPOS: u32 = 0x7FFF_FFFF;

/// Exact conversion of a posit32 pattern to `f64` (`NaR` becomes NaN).
#[inline]
pub(crate) fn to_f64(bits: u32) -> f64 {
    if bits << 1 == 0 {
        return if bits == 0 { 0.0 } else { f64::NAN };
    }
    let sign = bits & NAR;
    let mag = if sign != 0 { bits.wrapping_neg() } else { bits };
    // Regime field left-aligned at bit 31; its run length is the count of
    // leading bits equal to the first one.
    let body = mag << 1;
    let run = (body ^ ((body as i32 >> 31) as u32)).leading_zeros();
    let k = if body >> 31 == 1 {
        run as i32 - 1
    } else {
        -(run as i32)
    };
    // Exponent and fraction follow the run and its terminator, top-aligned
    // in a u64. A run that fills the body (|k| = 30) leaves neither: the
    // shift (at most 32) clears them, and missing exponent bits read as
    // zero, as in the standard's ghost-bit convention.
    let rest = (u64::from(body) << 32) << (run + 1);
    let scale = 4 * k + (rest >> 62) as i32;
    let frac = (rest << 2) >> 12;
    f64::from_bits((u64::from(sign) << 32) | (((scale + 1023) as u64) << 52) | frac)
}

/// Correctly rounds an `f64` into posit32: nearest pattern, ties to even
/// on the bit stream, saturating at `±maxpos` / `±minpos` (no finite
/// value rounds to zero or NaR). NaN and infinities map to NaR.
#[inline]
pub(crate) fn from_f64(x: f64) -> u32 {
    let bits = x.to_bits();
    let abs = bits & !(1u64 << 63);
    if abs >= 0x7FF0_0000_0000_0000 {
        return NAR;
    }
    if abs == 0 {
        return 0;
    }
    let scale = (abs >> 52) as i32 - 1023;
    let body = if scale >= 120 {
        MAXPOS
    } else if scale < -120 {
        1 // minpos; f64 subnormals land here too (scale -1023)
    } else {
        let k = scale >> 2;
        // Regime: k+1 ones and a zero terminator, or -k zeros and a one.
        let (regime, len) = if k >= 0 {
            ((2u32 << (k + 1)) - 2, k + 2)
        } else {
            (1, 1 - k)
        };
        // Body bits left after the regime (0..=29 for scale in [-120, 120)),
        // filled from the window `e (2 bits) | 52-bit fraction` behind it.
        let avail = (31 - len) as u32;
        let window = (((scale & 3) as u64) << 52) | (abs & ((1u64 << 52) - 1));
        let body = (regime << avail) | (window >> (54 - avail)) as u32;
        // Round to nearest, ties to even, as an added bit: up when the
        // round bit is set and the sticky bits or the body's last bit are.
        let round = (window >> (53 - avail)) as u32;
        let sticky = u32::from(window & ((1u64 << (53 - avail)) - 1) != 0);
        (body + (round & (sticky | body) & 1)).clamp(1, MAXPOS)
    };
    if bits >> 63 == 1 {
        body.wrapping_neg()
    } else {
        body
    }
}
