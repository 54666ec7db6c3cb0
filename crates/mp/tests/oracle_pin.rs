//! Pins the oracle's outputs bit for bit.
//!
//! Correct rounding is unique, so a change to how [`rlibm_mp::elem`]
//! evaluates a function (its series, reductions or working precisions)
//! must leave every oracle result where it was. This test hashes the
//! `<T>` and `_f64` entries over every binary16 pattern for all ten
//! functions, plus seeded f32 and posit32 samples, and compares the
//! hashes with values recorded before the series were last rewritten.
//!
//! It takes tens of seconds in release, so it is `#[ignore]`d:
//!
//! ```text
//! cargo test --release -p rlibm-mp --test oracle_pin -- --ignored
//! ```

use rlibm_fp::rng::{draw_biased_f32, XorShift64};
use rlibm_fp::{Half, Representation};
use rlibm_mp::oracle::{try_correctly_rounded, try_correctly_rounded_f64, Func};
use rlibm_mp::DEFAULT_PREC_CEILING;
use rlibm_posit::Posit32;

/// Seeded samples per function for f32 and posit32.
const SAMPLES: usize = 16384;

/// FNV-1a over the little-endian bytes of a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, bits: u64) {
        for b in bits.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// `try_correctly_rounded::<T>` as bits, or an error marker.
fn oracle_bits<T: Representation>(f: Func, x: T) -> u64 {
    match try_correctly_rounded(f, x, DEFAULT_PREC_CEILING) {
        Ok(y) => u64::from(y.to_bits_u32()),
        Err(_) => u64::MAX,
    }
}

/// `try_correctly_rounded_f64` as bits, or an error marker.
fn oracle_f64_bits(f: Func, x: f64) -> u64 {
    match try_correctly_rounded_f64(f, x, DEFAULT_PREC_CEILING) {
        Ok(y) => y.to_bits(),
        Err(_) => u64::MAX - 1,
    }
}

/// Every binary16 pattern through both entries, per function.
fn half_hash() -> u64 {
    let mut h = Fnv::new();
    for f in Func::ALL {
        for bits in 0..=u16::MAX {
            let x = Half::from_bits(bits);
            h.mix(oracle_bits(f, x));
            h.mix(oracle_f64_bits(f, x.to_f64()));
        }
    }
    h.0
}

/// Seeded f32 draws, three in four from each function's kernel domain.
fn f32_hash() -> u64 {
    let mut rng = XorShift64::new(0x05EE_DF32);
    let mut h = Fnv::new();
    for f in Func::ALL {
        for _ in 0..SAMPLES {
            let x = draw_biased_f32(&mut rng, f.name());
            h.mix(oracle_bits(f, x));
        }
    }
    h.0
}

/// Seeded random posit32 bit patterns (every regime) for the eight
/// posit functions.
fn posit32_hash() -> u64 {
    let mut rng = XorShift64::new(0x5EED_9032);
    let mut h = Fnv::new();
    for f in Func::POSIT {
        for _ in 0..SAMPLES {
            let x = Posit32::from_bits(rng.next_u32());
            h.mix(oracle_bits(f, x));
        }
    }
    h.0
}

#[test]
#[ignore = "tens of seconds: run with --release -- --ignored"]
fn oracle_outputs_are_pinned() {
    let got = [half_hash(), f32_hash(), posit32_hash()];
    let want = [0xced9_79b1_8b24_a8ef, 0x90e5_64d0_e90b_9a3e, 0x35bf_9579_7125_2736];
    assert_eq!(
        got, want,
        "oracle hashes (binary16, f32, posit32) moved: {got:#018x?}"
    );
}
