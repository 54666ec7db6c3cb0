//! Equivalence of the dedicated posit32 codec (`Posit32::to_f64` /
//! `Posit32::from_f64`) with the generic `PositFormat::POSIT32` path,
//! which stays the reference: decode must reproduce the generic value bit
//! for bit, and encode must pick the same pattern for every probe —
//! exact values, ties between neighbours, one f64 ulp either side of a
//! tie, the saturation band and the f64 values no posit holds.
//!
//! The default tests cover every regime boundary, a strided sweep of the
//! pattern space and the edge cases in a few seconds. The `#[ignore]`d
//! exhaustive test runs the same probes on all 2^32 patterns:
//!
//! ```text
//! cargo test --release -p rlibm-posit --test codec32 -- --ignored
//! ```

use rlibm_fp::bits::{next_down_f64, next_up_f64};
use rlibm_fp::rng::XorShift64;
use rlibm_posit::{Posit32, PositFormat};

const P32: PositFormat = PositFormat::POSIT32;

/// Compares both encoders on one f64; returns the pattern.
fn encode_agrees(x: f64) -> u32 {
    let want = P32.round_from_f64(x);
    let got = Posit32::from_f64(x).to_bits();
    assert_eq!(
        got,
        want,
        "encode({x:e} = {:#018x}): {got:#010x} vs {want:#010x}",
        x.to_bits()
    );
    got
}

/// Decode of `bits`, then encode of the value, the tie with the next
/// pattern up, and the tie ±1 f64 ulp. Returns the number of probes.
fn check_pattern(bits: u32) -> u64 {
    let want = P32.to_f64(bits);
    let got = Posit32::from_bits(bits).to_f64();
    assert!(
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
        "decode({bits:#010x}): {got:e} vs {want:e}"
    );
    if want.is_nan() {
        return 1;
    }
    assert_eq!(encode_agrees(want), bits, "round trip of {bits:#010x}");
    if bits == P32.maxpos_bits() {
        return 2;
    }
    // The next pattern up in value order (`-minpos` steps to zero).
    let next = P32.to_f64(bits.wrapping_add(1));
    // Adjacent posits differ by at most a factor of 16 and carry at most
    // 29 significant bits, so the midpoint is exact in f64.
    let tie = (want + next) / 2.0;
    encode_agrees(tie);
    if tie != 0.0 {
        encode_agrees(next_up_f64(tie));
        encode_agrees(next_down_f64(tie));
    }
    5
}

/// Every pattern within 64 of a regime-length change, both signs: the
/// boundaries sit at `2^m` (zero runs) and `2^31 - 2^m` (one runs).
#[test]
fn regime_boundaries() {
    let mut probes = 0u64;
    for m in 0..=31u32 {
        for centre in [1u32 << m, (1u32 << 31).wrapping_sub(1 << m)] {
            for d in -64i64..=64 {
                let p = (i64::from(centre) + d) as u32;
                probes += check_pattern(p);
                probes += check_pattern(p.wrapping_neg());
            }
        }
    }
    assert!(probes > 60_000, "{probes} probes");
}

/// About a million patterns spread over the whole space (the stride is
/// odd, so every low-bit residue is visited).
#[test]
fn strided_sweep() {
    let mut p = 0u32;
    loop {
        check_pattern(p);
        p = match p.checked_add(4093) {
            Some(q) => q,
            None => break,
        };
    }
}

/// Scales 116–124 and their negatives: where the exponent field is cut
/// short and the grid skips binades, where `maxpos = 2^120` saturates,
/// and where values below `minpos` must still round up to it.
#[test]
fn saturation_band() {
    let mut rng = XorShift64::new(0x5A7);
    for s in 116..=124 {
        for sign in [1.0, -1.0] {
            for scale in [s, -s] {
                let p2 = 2f64.powi(scale);
                let mut mants = vec![1.0, 1.25, 1.5, 1.75, 2.0 - 2f64.powi(-52)];
                mants.extend((0..64).map(|_| rng.uniform_f64(1.0, 2.0)));
                for m in mants {
                    let x = sign * m * p2;
                    encode_agrees(x);
                    encode_agrees(next_up_f64(x));
                    encode_agrees(next_down_f64(x));
                }
            }
        }
    }
}

/// Values no posit holds exactly: zeros, infinities, NaNs, f64
/// subnormals, and magnitudes far beyond `maxpos` or below `minpos`.
#[test]
fn non_posit_values() {
    let mut xs = vec![
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        -f64::from_bits(1),
        2f64.powi(121),
        -2f64.powi(121),
        2f64.powi(1000),
        2f64.powi(-121),
        2f64.powi(-1000),
    ];
    let mut rng = XorShift64::new(0xC0DEC);
    for _ in 0..10_000 {
        // Random subnormals and random |x| >= 2^121.
        xs.push(f64::from_bits(rng.next_u64() & 0x800F_FFFF_FFFF_FFFF));
        let big = rng.uniform_f64(1.0, 2.0) * 2f64.powi(rng.uniform_i64(121, 1024) as i32);
        xs.push(if rng.next_u64() & 1 == 0 { big } else { -big });
    }
    for x in xs {
        let p = encode_agrees(x);
        if x.is_nan() || x.is_infinite() {
            assert_eq!(p, P32.nar_bits(), "{x:e} must encode to NaR");
        } else if x != 0.0 {
            assert_ne!(p, 0, "{x:e} must not round to zero");
        }
    }
}

/// Random f64 bit patterns and random values in the posit range.
#[test]
fn random_f64_values() {
    let mut rng = XorShift64::new(0xF64);
    for _ in 0..500_000 {
        encode_agrees(f64::from_bits(rng.next_u64()));
        let x = rng.uniform_f64(1.0, 2.0) * 2f64.powi(rng.uniform_i64(-126, 126) as i32);
        encode_agrees(if rng.next_u64() & 1 == 0 { x } else { -x });
    }
}

/// Every pattern × {value, tie, tie ± 1 ulp}: about 2·10^10 probes, a
/// few minutes on two threads in release.
#[test]
#[ignore = "exhaustive: run with --release -- --ignored"]
fn exhaustive_all_patterns() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let total = 1u64 << 32;
    let probes: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let (lo, hi) = (total * t / threads, total * (t + 1) / threads);
                    (lo..hi).map(|p| check_pattern(p as u32)).sum::<u64>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).sum()
    });
    println!("posit32 codec: {probes} probes over 2^32 patterns, 0 mismatches");
}
