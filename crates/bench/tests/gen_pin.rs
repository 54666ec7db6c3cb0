//! Pins the generator's coefficients bit for bit.
//!
//! Runs `gen_polynomial` on the ten fp16 domains of [`rlibm_bench::gen`]
//! (the `gen_bench` workloads) and hashes every coefficient's bit
//! pattern. A change to the LP, the CEGIS loop or the oracle that claims
//! to move no bit must leave this hash where it was; on a mismatch the
//! test prints one line of coefficient bits per function, to diff
//! against a run of the same test at the other revision.
//!
//! It takes seconds in release, so it is `#[ignore]`d:
//!
//! ```text
//! cargo test --release -p rlibm-bench --test gen_pin -- --ignored
//! ```

use rlibm_bench::gen::{gen_domains, oracle_cases};
use rlibm_core::{deduce_reduced_intervals, gen_polynomial, merge_by_reduced_input, PolyGenConfig};

/// FNV-1a over the names and coefficient bits of all ten functions.
const PINNED: u64 = 0x7ecd_f274_d03c_dfbc;

/// FNV-1a over the little-endian bytes of a stream of words.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[test]
#[ignore = "seconds in release; run with --ignored"]
fn generated_coefficients_are_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut lines = Vec::new();
    for d in gen_domains() {
        let name = d.func.name();
        let cases = oracle_cases(d.func, &d.inputs());
        let per_component = deduce_reduced_intervals(&cases, &|vals, _| vals[0]).expect("deduce");
        let merged = merge_by_reduced_input(&per_component[0], 0).expect("merge");
        let cfg = PolyGenConfig { terms: d.terms.clone(), ..Default::default() };
        let (poly, _) = gen_polynomial(&merged, &cfg).expect("generate");
        h.bytes(name.as_bytes());
        let bits: Vec<String> = poly
            .coeffs()
            .iter()
            .map(|c| {
                h.bytes(&c.to_bits().to_le_bytes());
                format!("{:016x}", c.to_bits())
            })
            .collect();
        lines.push(format!("{name}: {}", bits.join(" ")));
    }
    assert!(
        h.0 == PINNED,
        "coefficient hash {:#018x} != pinned {PINNED:#018x}; coefficient bits:\n{}",
        h.0,
        lines.join("\n")
    );
}
