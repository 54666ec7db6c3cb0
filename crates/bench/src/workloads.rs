//! Input workloads for timing and correctness sweeps.
//!
//! Timing inputs are drawn from each function's *useful* domain (the paper
//! times all 2^32 bit patterns, which for exp means mostly saturated
//! values; for ratio comparisons the interesting region is where the
//! polynomial path actually runs). Correctness sweeps reuse the stratified
//! generators from `rlibm-core`. All pseudo-randomness comes from the
//! in-tree [`XorShift64`] generator — the workspace has no registry
//! dependencies, and the streams are reproducible by seed alone.

use rlibm_fp::rng::XorShift64;
use rlibm_posit::Posit32;

/// A deterministic RNG for reproducible workloads.
pub fn rng(seed: u64) -> XorShift64 {
    XorShift64::new(seed)
}

/// Timing inputs for a float function: uniform over the region where the
/// kernel (not the special-case filter) runs.
pub fn timing_inputs_f32(name: &str, n: usize, seed: u64) -> Vec<f32> {
    let mut r = rng(seed);
    (0..n)
        .map(|_| match name {
            "ln" | "log2" | "log10" => {
                // Log-uniform positives across the full exponent range.
                let e = r.uniform_f32(-126.0, 127.0);
                let m = r.uniform_f32(1.0, 2.0);
                m * e.exp2()
            }
            "exp" => r.uniform_f32(-87.0, 88.0),
            "exp2" => r.uniform_f32(-125.0, 127.0),
            "exp10" => r.uniform_f32(-37.0, 38.0),
            "sinh" | "cosh" => r.uniform_f32(-88.0, 88.0),
            "sinpi" | "cospi" => r.uniform_f32(-1000.0, 1000.0),
            _ => panic!("unknown function {name}"),
        })
        .collect()
}

/// Timing inputs for a posit32 function.
pub fn timing_inputs_posit32(name: &str, n: usize, seed: u64) -> Vec<Posit32> {
    let mut r = rng(seed);
    (0..n)
        .map(|_| {
            let v: f64 = match name {
                "ln" | "log2" | "log10" => {
                    let e = r.uniform_f64(-118.0, 118.0);
                    let m = r.uniform_f64(1.0, 2.0);
                    m * e.exp2()
                }
                "exp" => r.uniform_f64(-82.0, 82.0),
                "exp2" => r.uniform_f64(-118.0, 118.0),
                "exp10" => r.uniform_f64(-35.0, 35.0),
                "sinh" | "cosh" => r.uniform_f64(-82.0, 82.0),
                _ => panic!("unknown posit function {name}"),
            };
            Posit32::from_f64(v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_stay_in_kernel_domains() {
        for name in ["ln", "exp", "exp2", "exp10", "sinh", "sinpi"] {
            let xs = timing_inputs_f32(name, 500, 7);
            assert_eq!(xs.len(), 500);
            for &x in &xs {
                let y = rlibm_math::eval_f32_by_name(name, x).expect("known name");
                assert!(!y.is_nan(), "{name}({x}) is NaN");
            }
        }
    }

    #[test]
    fn workloads_cover_both_tables() {
        for name in rlibm_math::F32_NAMES {
            let xs = timing_inputs_f32(name, 64, 7);
            assert_eq!(xs.len(), 64, "f32 workload for {name}");
            assert!(xs.iter().all(|x| x.is_finite()), "f32 workload for {name} must be finite");
        }
        for name in rlibm_math::POSIT32_NAMES {
            let xs = timing_inputs_posit32(name, 64, 7);
            assert_eq!(xs.len(), 64, "posit workload for {name}");
            assert!(!xs.iter().any(|x| x.is_nar()), "posit workload for {name} must avoid NaR");
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(timing_inputs_f32("exp", 32, 5), timing_inputs_f32("exp", 32, 5));
        let a = timing_inputs_posit32("ln", 16, 1);
        let b = timing_inputs_posit32("ln", 16, 1);
        assert!(a.iter().zip(&b).all(|(x, y)| x == y));
    }
}
