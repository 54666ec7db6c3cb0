//! Pins the bit-packed lookup tables to the pre-packing era.
//!
//! `tests/data/tables_v1_bits.txt` is the committed hex dump of every
//! table entry and double-double constant as they were when the tables
//! were hand-committed `(f64, f64)` arrays. The build-time packer
//! (`crates/libm/build.rs`) must reproduce each of them **byte for
//! byte** through the public accessors — any drift here means the
//! packed representation changed numerics, which invalidates every
//! certification artifact at once.
//!
//! A second half sweeps the codec itself: `pack -> unpack` must be the
//! identity on every representable value at each (hi_base, lo_base)
//! window actually used by a shipped table, and the encoder must reject
//! everything outside its window rather than silently saturate.

use rlibm_math::tables;
use rlibm_math::tables_codec as codec;

/// One parsed line of the v1 bits file.
enum Row {
    /// `NAME idx hi_bits lo_bits`
    Entry { table: String, idx: usize, hi: u64, lo: u64 },
    /// `CONST NAME bits`
    Const { name: String, bits: u64 },
}

fn parse_bits_file() -> Vec<Row> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/tables_v1_bits.txt");
    let text = std::fs::read_to_string(path).expect("committed bits file");
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let hex = |s: &str| u64::from_str_radix(s, 16).expect("hex field");
            match f.as_slice() {
                ["CONST", name, bits] => Row::Const { name: name.to_string(), bits: hex(bits) },
                [table, idx, hi, lo] => Row::Entry {
                    table: table.to_string(),
                    idx: idx.parse().expect("index field"),
                    hi: hex(hi),
                    lo: hex(lo),
                },
                _ => panic!("malformed line: {l}"),
            }
        })
        .collect()
}

/// Resolves a table name to its public accessor.
fn lookup(table: &str, idx: usize) -> (f64, f64) {
    match table {
        "EXP2_64" => tables::EXP2_64.entry(idx),
        "LN_F" => tables::LN_F.entry(idx),
        "LOG2_F" => tables::LOG2_F.entry(idx),
        "LOG10_F" => tables::LOG10_F.entry(idx),
        "SINPI_T" => tables::SINPI_T.entry(idx),
        // cos(pi n/512) is the sinpi table mirrored (checked at build time).
        "COSPI_T" => tables::SINPI_T.entry(256 - idx),
        other => panic!("unknown table {other}"),
    }
}

/// Resolves a constant name to its generated value.
fn lookup_const(name: &str) -> f64 {
    match name {
        "LN2_HI" => tables::LN2_HI,
        "LN2_LO" => tables::LN2_LO,
        "LN10_HI" => tables::LN10_HI,
        "LN10_LO" => tables::LN10_LO,
        "PI_HI" => tables::PI_HI,
        "PI_LO" => tables::PI_LO,
        "INV_LN2_HI" => tables::INV_LN2_HI,
        "INV_LN2_LO" => tables::INV_LN2_LO,
        "INV_LN10_HI" => tables::INV_LN10_HI,
        "INV_LN10_LO" => tables::INV_LN10_LO,
        "LOG10_2_HI" => tables::LOG10_2_HI,
        "LOG10_2_LO" => tables::LOG10_2_LO,
        "LN2_64_HI" => tables::LN2_64_HI,
        "LN2_64_MID" => tables::LN2_64_MID,
        "LN2_64_LO" => tables::LN2_64_LO,
        "LN2_HI42" => tables::LN2_HI42,
        "LN2_MID" => tables::LN2_MID,
        "LN2_LO42" => tables::LN2_LO42,
        "SINPI_C3" => tables::SINPI_C3,
        "SINPI_C5" => tables::SINPI_C5,
        "SINPI_C7" => tables::SINPI_C7,
        "COSPI_C2_HI" => tables::COSPI_C2_HI,
        "COSPI_C2_LO" => tables::COSPI_C2_LO,
        "COSPI_C4" => tables::COSPI_C4,
        "COSPI_C6" => tables::COSPI_C6,
        "LOG2_10" => tables::LOG2_10,
        "LOG2_E" => tables::LOG2_E,
        other => panic!("unknown const {other}"),
    }
}

#[test]
fn every_packed_entry_matches_the_v1_bits() {
    let rows = parse_bits_file();
    // The dump must actually cover the whole surface: 64 + 3*129 + 2*257
    // table entries and the 27 shared constants.
    let entries = rows.iter().filter(|r| matches!(r, Row::Entry { .. })).count();
    let consts = rows.iter().filter(|r| matches!(r, Row::Const { .. })).count();
    assert_eq!(entries, 64 + 3 * 129 + 2 * 257, "bits file lost table rows");
    assert_eq!(consts, 27, "bits file lost constant rows");

    for row in &rows {
        match row {
            Row::Entry { table, idx, hi, lo } => {
                let (h, l) = lookup(table, *idx);
                assert_eq!(h.to_bits(), *hi, "{table}[{idx}] hi drifted");
                assert_eq!(l.to_bits(), *lo, "{table}[{idx}] lo drifted");
            }
            Row::Const { name, bits } => {
                assert_eq!(lookup_const(name).to_bits(), *bits, "{name} drifted");
            }
        }
    }
}

/// The (hi_base, lo_base) windows of every shipped packed table —
/// the widths the property sweep must cover.
const USED_BASES: [(&str, u64, u64); 5] = [
    ("EXP2_64", tables::EXP2_64_HI_BASE, tables::EXP2_64_LO_BASE),
    ("LN_F", tables::LN_F_HI_BASE, tables::LN_F_LO_BASE),
    ("LOG2_F", tables::LOG2_F_HI_BASE, tables::LOG2_F_LO_BASE),
    ("LOG10_F", tables::LOG10_F_HI_BASE, tables::LOG10_F_LO_BASE),
    ("SINPI_T", tables::SINPI_T_HI_BASE, tables::SINPI_T_LO_BASE),
];

/// Deterministic 64-bit mix (splitmix64) for the sweep inputs.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn roundtrip(hi: f64, lo: f64, hb: u64, lb: u64) -> (f64, f64) {
    let bytes = codec::pack_entry(hi, lo, hb, lb)
        .unwrap_or_else(|| panic!("pack rejected hi={hi:e} lo={lo:e} at ({hb},{lb})"));
    codec::unpack_entry(&bytes, 0, hb, lb)
}

#[test]
fn pack_unpack_roundtrips_every_used_window() {
    for &(name, hb, lb) in &USED_BASES {
        for i in 0..20_000u64 {
            let r = mix(i.wrapping_mul(0x6C62_72E6).wrapping_add(hb * 31 + lb));
            // Exponent uniform over the 15-code window, mantissa random,
            // lo sign random; hi is non-negative by the codec contract.
            let hexp = hb + (r >> 52) % 15;
            let hbits = (hexp << 52) | (r & codec::MANT52_MASK);
            let r2 = mix(r);
            let lexp = lb + (r2 >> 52) % 15;
            let lsign = (r2 >> 51) & 1;
            let lbits = (lsign << 63) | (lexp << 52) | (r2 & codec::MANT52_MASK);
            let (hi, lo) = (f64::from_bits(hbits), f64::from_bits(lbits));
            let (h, l) = roundtrip(hi, lo, hb, lb);
            assert_eq!(h.to_bits(), hbits, "{name}: hi roundtrip at iter {i}");
            assert_eq!(l.to_bits(), lbits, "{name}: lo roundtrip at iter {i}");
        }
        // Window and mantissa boundaries, and the zero select.
        for code in [0u64, 1, 14] {
            let exp = hb + code;
            for mant in [0u64, 1, codec::MANT52_MASK] {
                let hbits = (exp << 52) | mant;
                let (h, l) = roundtrip(f64::from_bits(hbits), 0.0, hb, lb);
                assert_eq!(h.to_bits(), hbits, "{name}: hi boundary");
                assert_eq!(l.to_bits(), 0, "{name}: zero lo must stay +0.0");
            }
        }
        let (h, _) = roundtrip(0.0, 0.0, hb, lb);
        assert_eq!(h.to_bits(), 0, "{name}: zero hi must stay +0.0");
    }
}

#[test]
fn encoder_rejects_out_of_window_values() {
    for &(name, hb, lb) in &USED_BASES {
        let below = f64::from_bits((hb - 1) << 52);
        let above = f64::from_bits((hb + 15) << 52);
        let inside = f64::from_bits(hb << 52);
        let lo_in = f64::from_bits(lb << 52);
        assert!(codec::pack_entry(below, lo_in, hb, lb).is_none(), "{name}: exp below window");
        assert!(codec::pack_entry(above, lo_in, hb, lb).is_none(), "{name}: exp above window");
        assert!(codec::pack_entry(-inside, lo_in, hb, lb).is_none(), "{name}: negative hi");
        assert!(codec::pack_entry(inside, -0.0, hb, lb).is_none(), "{name}: -0.0 lo");
        assert!(
            codec::pack_entry(f64::INFINITY, lo_in, hb, lb).is_none(),
            "{name}: non-finite hi"
        );
        assert!(codec::pack_entry(inside, f64::NAN, hb, lb).is_none(), "{name}: NaN lo");
        // Subnormals have exponent field 0, always outside a table window.
        assert!(
            codec::pack_entry(f64::from_bits(1), lo_in, hb, lb).is_none(),
            "{name}: subnormal hi"
        );
    }
}

#[test]
fn packed_layout_matches_its_advertised_footprint() {
    let packed = tables::EXP2_64_P.len()
        + tables::LN_F_P.len()
        + tables::LOG2_F_P.len()
        + tables::LOG10_F_P.len()
        + tables::SINPI_T_P.len();
    assert_eq!(packed, tables::TABLE_BYTES_PACKED);
    assert_eq!(tables::EXP2_64_P.len(), 64 * codec::PACKED_STRIDE);
    assert_eq!(tables::LN_F_P.len(), 129 * codec::PACKED_STRIDE);
    assert_eq!(tables::SINPI_T_P.len(), 257 * codec::PACKED_STRIDE);
    // The unpacked footprint these replaced: 16 bytes per (f64, f64)
    // entry including the COSPI_T table the mirror identity eliminated.
    assert_eq!(tables::TABLE_BYTES_UNPACKED, 16 * (64 + 3 * 129 + 2 * 257));
}
