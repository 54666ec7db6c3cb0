//! Pins the exact simplex's results bit for bit.
//!
//! The generator's pinned domains solve every LP in the f64 layer, so
//! nothing else pinned reaches the exact engine. This test runs cold
//! `solve_standard_form` solves over seeded random integer LPs and hashes
//! every status, solution, objective and basis. A change to the exact
//! engine that claims to move no pivot must leave this hash where it was;
//! on a mismatch the test prints one line per LP, to diff against a run
//! of the same test at the other revision.

use rlibm_lp::simplex::{solve_standard_form, StandardResult};
use rlibm_mp::Rational;

/// FNV-1a over the rendering of every solve's result.
const PINNED: u64 = 0x266e_1d35_347b_1069;

/// splitmix64 draws in `lo..=hi`.
struct Draw(u64);

impl Draw {
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        lo + (z % (hi - lo + 1) as u64) as i64
    }
}

fn join(v: &[Rational]) -> String {
    v.iter().map(Rational::to_string).collect::<Vec<_>>().join(" ")
}

#[test]
fn exact_solves_are_pinned() {
    let mut draw = Draw(0x6a09_e667_f3bc_c908);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lines = Vec::new();
    let mut seen = [0usize; 3];
    for case in 0..800 {
        let m = draw.int(1, 5) as usize;
        let n = draw.int(m as i64, m as i64 + 4) as usize;
        let mut int = |lo, hi| Rational::from_i64(draw.int(lo, hi));
        let a: Vec<Vec<Rational>> = (0..m).map(|_| (0..n).map(|_| int(-3, 3)).collect()).collect();
        let b: Vec<Rational> = (0..m).map(|_| int(-4, 4)).collect();
        let c: Vec<Rational> = (0..n).map(|_| int(-3, 3)).collect();
        let line = match solve_standard_form(&a, &b, &c, 10_000).expect("solve") {
            StandardResult::Optimal { x, objective, basis } => {
                seen[0] += 1;
                format!("{case}: optimal x [{}] objective {objective} basis {basis:?}", join(&x))
            }
            StandardResult::Infeasible => {
                seen[1] += 1;
                format!("{case}: infeasible")
            }
            StandardResult::Unbounded => {
                seen[2] += 1;
                format!("{case}: unbounded")
            }
        };
        for &byte in line.as_bytes().iter().chain(b"\n") {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        lines.push(line);
    }
    assert!(seen.iter().all(|&s| s >= 100), "optimal/infeasible/unbounded cases: {seen:?}");
    assert!(
        h == PINNED,
        "result hash {h:#018x} != pinned {PINNED:#018x}; results:\n{}",
        lines.join("\n")
    );
}
