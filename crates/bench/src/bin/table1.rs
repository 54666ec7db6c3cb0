//! Reproduces **Table 1**: generation of correctly rounded results for
//! 32-bit floats — RLIBM-32 vs a single-precision libm model, a
//! re-purposed double libm (the glibc/Intel-double column), and a
//! CR-LIBM model (correctly rounded double, double-rounded to float).
//!
//! The paper enumerates all 2^32 inputs; a multi-precision oracle makes
//! that days of compute here, so the default run checks a stratified
//! sample (every exponent bucket of both signs) and reports misrounding
//! *counts over the sample* plus the scaled estimate for the full domain.
//!
//! Usage: `cargo run -p rlibm-bench --release --bin table1 [per_exponent]`
//! (default 40 — about 20k inputs per function; the paper-scale run uses
//! 4000+).

use rlibm_core::par::num_threads;
use rlibm_core::validate::{stratified_f32, validate_par, ValidationReport};
use rlibm_mp::Func;

fn mark(r: &ValidationReport, scale: f64) -> String {
    if r.wrong == 0 {
        "ok".to_string()
    } else {
        format!("X({} | ~{:.1e} full)", r.wrong, r.wrong as f64 * scale)
    }
}

fn main() {
    let per_exp: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    let xs = stratified_f32(per_exp, 0xACE1_2345);
    let scale = 2f64.powi(32) / xs.len() as f64;
    let threads = num_threads();
    println!("Table 1: correctly rounded results for 32-bit float");
    println!(
        "  sample: {} stratified inputs/function (x{:.0} to full domain)\n",
        xs.len(),
        scale
    );
    println!(
        "{:>8} | {:>12} | {:>18} | {:>18} | {:>18}",
        "float fn", "RLIBM-32", "float-libm model", "double-libm model", "CR-LIBM model"
    );
    println!("{}", "-".repeat(86));
    for f in Func::ALL {
        let name = f.name();
        let ours = validate_par(f, |x: f32| rlibm_math::eval_f32_by_name(name, x).expect("known name"), &xs, threads);
        let fl32 = validate_par(
            f,
            rlibm_math::baseline_f32_fn_by_name(name).expect("known name"),
            &xs,
            threads,
        );
        let dbl = validate_par(
            f,
            |x: f32| rlibm_math::baselines::double64::to_f32(name, x),
            &xs,
            threads,
        );
        let cr: ValidationReport = if matches!(f, Func::SinPi | Func::CosPi) {
            // The CR-LIBM model shares the double64 path for sinpi/cospi
            // (CR-LIBM itself has no sinpi/cospi; the paper marks its own
            // double column there).
            dbl.clone()
        } else {
            validate_par(
                f,
                |x: f32| rlibm_math::baselines::crlibm::to_f32(name, x),
                &xs,
                threads,
            )
        };
        println!(
            "{:>8} | {:>12} | {:>18} | {:>18} | {:>18}",
            name,
            mark(&ours, scale),
            mark(&fl32, scale),
            mark(&dbl, scale),
            mark(&cr, scale)
        );
        assert_eq!(
            ours.wrong, 0,
            "RLIBM-32 column must be clean; first failure: {:?}",
            ours.examples.first()
        );
    }
    println!(
        "\n'ok' = correctly rounded on every sampled input; X(n | ~m full) = n\n\
         sampled misroundings, m the scaled full-domain estimate (cf. the\n\
         paper's X(4.2E5) style entries)."
    );
}
