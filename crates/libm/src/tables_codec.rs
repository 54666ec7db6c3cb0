//! Bit-packing codec for the kernel lookup tables.
//!
//! Every table column (hi or lo of a double-double pair) uses a narrow
//! slice of the f64 exponent range, and the hi column is always
//! non-negative, so a full entry packs into **15 bytes** instead of 16:
//!
//! ```text
//! bits   0..52   hi mantissa (52 bits)
//! bits  52..56   hi exponent code (4 bits; 0 = value is +0.0,
//!                otherwise biased exponent = hi_base + code - 1)
//! bits  56..108  lo mantissa (52 bits)
//! bits 108..112  lo exponent code (4 bits, same scheme vs lo_base)
//! bit  112       lo sign
//! bits 113..120  unused (7 bits of padding to the byte boundary)
//! ```
//!
//! Entries live at a fixed 15-byte stride, so both the scalar accessors
//! and the AVX2 gather path decode with two unaligned u64 loads (at
//! byte offsets `15n` and `15n + 7`) plus fixed shifts and masks —
//! no per-entry branching beyond the zero-code select. Decoding is
//! exact: the packed form stores every mantissa bit, so unpack(pack(x))
//! reproduces `x` bit for bit (the property `tests/table_packing.rs`
//! sweeps).
//!
//! This file is compiled twice on purpose: as `crate::tables_codec` in
//! the runtime library and via `include!` inside `build.rs`, so the
//! packer and unpacker can never drift apart. Keep it free of `use
//! crate::...` items.

/// Bytes per packed table entry.
pub const PACKED_STRIDE: usize = 15;

/// Mask of the 52 mantissa bits.
pub const MANT52_MASK: u64 = (1 << 52) - 1;

/// Mask selecting a packed hi word out of the u64 loaded at offset `15n`
/// (56 low bits).
pub const HI_WORD_MASK: u64 = (1 << 56) - 1;

/// Mask selecting a packed lo word out of the u64 loaded at offset
/// `15n + 7` (57 low bits).
pub const LO_WORD_MASK: u64 = (1 << 57) - 1;

/// Decodes a 56-bit packed hi word (no sign) into f64 bits.
#[inline(always)]
pub fn decode_hi(word: u64, base: u64) -> u64 {
    let code = (word >> 52) & 0xF;
    if code == 0 {
        0
    } else {
        ((base + code - 1) << 52) | (word & MANT52_MASK)
    }
}

/// Decodes a 57-bit packed lo word (sign in bit 56) into f64 bits.
#[inline(always)]
pub fn decode_lo(word: u64, base: u64) -> u64 {
    let code = (word >> 52) & 0xF;
    if code == 0 {
        0
    } else {
        ((word >> 56) << 63) | ((base + code - 1) << 52) | (word & MANT52_MASK)
    }
}

/// Unpacks entry `idx` of a packed table into its `(hi, lo)` pair.
///
/// One bounds check per entry (on the 15-byte chunk slice; the two
/// fixed-offset u64 loads inside it are check-free). The hot trig
/// kernels do two of these per call, so the single-check shape matters.
#[inline(always)]
pub fn unpack_entry(bytes: &[u8], idx: usize, hi_base: u64, lo_base: u64) -> (f64, f64) {
    let off = idx * PACKED_STRIDE;
    let chunk = &bytes[off..off + PACKED_STRIDE];
    let mut b0 = [0u8; 8];
    b0.copy_from_slice(&chunk[..8]);
    let mut b1 = [0u8; 8];
    b1.copy_from_slice(&chunk[7..15]);
    let hi_word = u64::from_le_bytes(b0) & HI_WORD_MASK;
    let lo_word = u64::from_le_bytes(b1) & LO_WORD_MASK;
    (
        f64::from_bits(decode_hi(hi_word, hi_base)),
        f64::from_bits(decode_lo(lo_word, lo_base)),
    )
}

/// Unpacks only the hi half of entry `idx`: one u64 load at offset
/// `15 * idx` plus the hi decode. The fast kernels, whose certified
/// error bands dwarf the lo words' ~2^-53 contribution, use this to halve
/// their table traffic.
#[inline(always)]
pub fn unpack_hi(bytes: &[u8], idx: usize, hi_base: u64) -> f64 {
    let off = idx * PACKED_STRIDE;
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[off..off + 8]);
    f64::from_bits(decode_hi(u64::from_le_bytes(b) & HI_WORD_MASK, hi_base))
}

/// Encodes f64 bits into a 56-bit hi word, or `None` if the value does
/// not fit (negative, non-finite, subnormal, or an exponent outside the
/// 15-code window starting at `base`).
#[inline]
pub fn encode_hi(bits: u64, base: u64) -> Option<u64> {
    if bits == 0 {
        return Some(0);
    }
    if bits >> 63 != 0 {
        return None; // hi columns are non-negative by construction
    }
    let exp = (bits >> 52) & 0x7FF;
    if exp == 0 || exp == 0x7FF || exp < base || exp > base + 14 {
        return None;
    }
    Some(((exp - base + 1) << 52) | (bits & MANT52_MASK))
}

/// Encodes f64 bits into a 57-bit lo word (sign in bit 56); `None` when
/// the exponent misses the code window. `-0.0` is rejected — zeros pack
/// as code 0 with a clear sign so the decoder's zero select is exact.
#[inline]
pub fn encode_lo(bits: u64, base: u64) -> Option<u64> {
    if bits == 0 {
        return Some(0);
    }
    let exp = (bits >> 52) & 0x7FF;
    if exp == 0 || exp == 0x7FF || exp < base || exp > base + 14 {
        return None;
    }
    Some(((bits >> 63) << 56) | ((exp - base + 1) << 52) | (bits & MANT52_MASK))
}

/// Packs one `(hi, lo)` pair into its 15-byte little-endian form.
#[inline]
pub fn pack_entry(hi: f64, lo: f64, hi_base: u64, lo_base: u64) -> Option<[u8; PACKED_STRIDE]> {
    let hw = encode_hi(hi.to_bits(), hi_base)?;
    let lw = encode_lo(lo.to_bits(), lo_base)?;
    let v = (hw as u128) | ((lw as u128) << 56);
    let le = v.to_le_bytes();
    let mut out = [0u8; PACKED_STRIDE];
    out.copy_from_slice(&le[..PACKED_STRIDE]);
    Some(out)
}
