//! Lookup tables and double-double constants for the correctly rounded
//! kernels — **generated at build time** by `crates/libm/build.rs` from
//! the 160-bit oracle (`rlibm_mp::tables_src`) and pinned by the
//! committed checksum `crates/libm/tables.fnv`.
//!
//! The tables are stored **bit-packed** at a 15-byte stride (see
//! [`crate::tables_codec`] for the exact layout): each hi/lo pair keeps
//! all 52 mantissa bits but compresses the sign and exponent into a
//! 4-bit code against a per-column base, which the accessors expand
//! with two unaligned u64 loads and fixed shifts. `COSPI_T` is not
//! stored at all — `cos(pi n/512) == sin(pi (256-n)/512)` bit-for-bit,
//! so `cos(pi n/512)` is read as sinpi entry `256 - n`. Together that is
//! [`TABLE_BYTES_PACKED`] bytes in place of the former
//! [`TABLE_BYTES_UNPACKED`] (a 31% reduction), which matters because
//! every serving shard hammers these tables through the slice kernels:
//! smaller tables, fewer L1/L2 misses under concurrent traffic.
//!
//! Unpacking is exact — `tests/table_packing.rs` round-trips every
//! entry against the pre-packing committed bits — so kernel outputs are
//! bit-identical to the unpacked era. The AVX2 lane's gathers
//! (`crate::lane`) decode the same layout with vector loads at byte
//! offsets `15n` / `15n + 7`.
//!
//! Regenerate the pin (after an intentional oracle/packing change) with
//! `RLIBM_WRITE_TABLE_FNV=1 cargo build -p rlibm-math`, then re-certify.

use crate::tables_codec as codec;

include!(concat!(env!("OUT_DIR"), "/packed_tables.rs"));

/// One packed table: its bytes and the exponent origins of its hi and lo
/// columns. The fast kernels read entries through the lane gathers
/// (`crate::lane`), one entry per lane; the dd kernels through
/// [`Packed::entry`].
#[derive(Debug, Clone, Copy)]
pub struct Packed {
    /// The entries at a [`codec::PACKED_STRIDE`]-byte stride.
    pub bytes: &'static [u8],
    /// Biased-exponent origin of the hi codes.
    pub hi_base: u64,
    /// Biased-exponent origin of the lo codes.
    pub lo_base: u64,
}

impl Packed {
    /// Entry `i` as its `(hi, lo)` pair.
    #[inline(always)]
    pub fn entry(&self, i: usize) -> (f64, f64) {
        codec::unpack_entry(self.bytes, i, self.hi_base, self.lo_base)
    }

    /// The hi word of entry `i` alone (one u64 load and decode).
    #[inline(always)]
    pub fn hi(&self, i: usize) -> f64 {
        codec::unpack_hi(self.bytes, i, self.hi_base)
    }
}

/// `2^(j/64)` for `j in 0..64`.
pub const EXP2_64: Packed =
    Packed { bytes: &EXP2_64_P, hi_base: EXP2_64_HI_BASE, lo_base: EXP2_64_LO_BASE };
/// `ln(1 + j/128)` for `j in 0..=128`.
pub const LN_F: Packed = Packed { bytes: &LN_F_P, hi_base: LN_F_HI_BASE, lo_base: LN_F_LO_BASE };
/// `log2(1 + j/128)` for `j in 0..=128`.
pub const LOG2_F: Packed =
    Packed { bytes: &LOG2_F_P, hi_base: LOG2_F_HI_BASE, lo_base: LOG2_F_LO_BASE };
/// `log10(1 + j/128)` for `j in 0..=128`.
pub const LOG10_F: Packed =
    Packed { bytes: &LOG10_F_P, hi_base: LOG10_F_HI_BASE, lo_base: LOG10_F_LO_BASE };
/// `sin(pi n/512)` for `n in 0..=256`; entry `256 - n` is `cos(pi n/512)`.
pub const SINPI_T: Packed =
    Packed { bytes: &SINPI_T_P, hi_base: SINPI_T_HI_BASE, lo_base: SINPI_T_LO_BASE };

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_entries_unpack_exactly() {
        assert_eq!(EXP2_64.entry(0), (1.0, 0.0));
        assert_eq!(LN_F.entry(0), (0.0, 0.0));
        assert_eq!(LN_F.entry(128).0, core::f64::consts::LN_2);
        assert_eq!(LOG2_F.entry(128), (1.0, 0.0));
        assert_eq!(SINPI_T.entry(0), (0.0, 0.0));
        assert_eq!(SINPI_T.entry(256), (1.0, 0.0));
    }

    #[test]
    fn lo_parts_keep_their_signs() {
        // The packed lo column carries a real sign bit; at least one
        // entry per table is negative in the committed data.
        for table in [LN_F, LOG2_F, LOG10_F, SINPI_T] {
            assert!(
                (0..=128).any(|j| table.entry(j).1 < 0.0),
                "no negative lo part survived unpacking"
            );
        }
    }

    #[test]
    fn hi_reads_match_pair_hi() {
        for table in [EXP2_64, LN_F, LOG2_F, LOG10_F, SINPI_T] {
            for i in 0..table.bytes.len() / codec::PACKED_STRIDE {
                assert_eq!(table.hi(i).to_bits(), table.entry(i).0.to_bits());
            }
        }
    }

    #[test]
    fn packed_sizes_add_up() {
        assert_eq!(
            TABLE_BYTES_PACKED,
            EXP2_64_P.len() + LN_F_P.len() + LOG2_F_P.len() + LOG10_F_P.len() + SINPI_T_P.len()
        );
        // The acceptance gate: >= 30% fewer table bytes than the
        // unpacked [(f64, f64)] representation.
        const { assert!(TABLE_BYTES_PACKED * 10 <= TABLE_BYTES_UNPACKED * 7) }
    }
}
