//! Inputs owned by the benchmark: a splitmix64 stream per (seed, salt)
//! and the per-function timing distributions, so no library change can
//! alter what is measured. [`Fnv`] fingerprints the inputs a run used.

use rlibm_posit::Posit32;

/// The ten f32 functions of the paper's Table 1.
pub const F32_FNS: [&str; 10] = [
    "ln", "log2", "log10", "exp", "exp2", "exp10", "sinh", "cosh", "sinpi", "cospi",
];

/// The eight posit32 functions of Table 2.
pub const P32_FNS: [&str; 8] = [
    "ln", "log2", "log10", "exp", "exp2", "exp10", "sinh", "cosh",
];

/// splitmix64 (Steele, Lea & Flood 2014).
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream for `seed`, decorrelated per `salt` (workload, function).
    pub fn new(seed: u64, salt: &str) -> SplitMix64 {
        let mut h = Fnv::new();
        h.bytes(salt.as_bytes());
        SplitMix64(seed ^ h.finish())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * unit
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// FNV-1a over bytes.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// `n` f32 inputs spread over the region where `name`'s kernel (not its
/// special-case filter) runs: the distributions of the fig3 harness.
pub fn f32_inputs(name: &str, n: usize, rng: &mut SplitMix64) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let v = match name {
                "ln" | "log2" | "log10" => {
                    rng.uniform(1.0, 2.0) * rng.uniform(-126.0, 126.0).exp2()
                }
                "exp" => rng.uniform(-87.0, 88.0),
                "exp2" => rng.uniform(-125.0, 127.0),
                "exp10" => rng.uniform(-37.0, 38.0),
                "sinh" | "cosh" => rng.uniform(-88.0, 88.0),
                "sinpi" | "cospi" => rng.uniform(-1000.0, 1000.0),
                _ => panic!("unknown f32 function {name}"),
            };
            v as f32
        })
        .collect()
}

/// `n` posit32 inputs spread across regimes: the distributions of the
/// fig4 harness.
pub fn posit32_inputs(name: &str, n: usize, rng: &mut SplitMix64) -> Vec<Posit32> {
    (0..n)
        .map(|_| {
            let v = match name {
                "ln" | "log2" | "log10" => {
                    rng.uniform(1.0, 2.0) * rng.uniform(-118.0, 118.0).exp2()
                }
                "exp" => rng.uniform(-82.0, 82.0),
                "exp2" => rng.uniform(-118.0, 118.0),
                "exp10" => rng.uniform(-35.0, 35.0),
                "sinh" | "cosh" => rng.uniform(-82.0, 82.0),
                _ => panic!("unknown posit32 function {name}"),
            };
            Posit32::from_f64(v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_salt() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix64::new(7, "x");
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix64::new(7, "x");
        assert!(a.iter().all(|&v| v == r.next_u64()));
        assert_ne!(SplitMix64::new(7, "y").next_u64(), a[0]);
    }

    #[test]
    fn inputs_stay_finite() {
        let mut r = SplitMix64::new(1, "t");
        for name in F32_FNS {
            assert!(f32_inputs(name, 512, &mut r).iter().all(|x| x.is_finite()));
        }
        for name in P32_FNS {
            assert!(posit32_inputs(name, 512, &mut r)
                .iter()
                .all(|x| !x.is_nar()));
        }
    }
}
