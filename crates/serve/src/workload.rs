//! The serveable function table and synthetic traffic generation.
//!
//! Requests address functions by a dense `u8` id, the function's slot in
//! the `rlibm_math::registry` table: `0..10` are the f32 tier-1 functions
//! (batched through the staged slice kernels), `10..18` are the posit32
//! functions (batched through the same staged chunk kernels behind the
//! posit codec). Ids are stable — they appear in `BENCH_serve.json` rows
//! via [`func_name`].
//!
//! Traffic synthesis reuses the workspace PRNG ([`XorShift64`]) and the
//! domain-biased f32 sampler shared with the fault and telemetry sweeps
//! ([`rlibm_fp::rng::draw_biased_f32`]): three draws in four land in the
//! kernel-reaching domain, the fourth is a raw bit pattern so specials
//! keep exercising the rescalar path. Posit inputs are raw bit patterns
//! (every u32 is a valid posit32; NaR lanes resolve like the scalar API).

use rlibm_fp::rng::XorShift64;
use rlibm_math::registry::F32_ROWS;
use rlibm_math::{slice, F32_NAMES, POSIT32_NAMES};
use rlibm_posit::Posit32;

/// Number of f32 function ids (`0..F32_FUNCS`).
pub const F32_FUNCS: usize = F32_NAMES.len();
/// Total function ids; `F32_FUNCS..NUM_FUNCS` are posit32.
pub const NUM_FUNCS: usize = rlibm_math::stats::slot::COUNT;

/// True when the id addresses a posit32 function.
#[inline]
pub fn is_posit(func: u8) -> bool {
    (func as usize) >= F32_FUNCS
}

/// Folds an arbitrary id into the valid range (requests built through
/// this module are always in range; the fold keeps the shard worker
/// total for ids that aren't).
#[inline]
pub(crate) fn fold(func: u8) -> usize {
    func as usize % NUM_FUNCS
}

/// The paper-table name behind an id (`"posit32/<name>"` for posit ids).
pub fn func_name(func: u8) -> &'static str {
    let f = fold(func);
    if f < F32_FUNCS {
        F32_NAMES[f]
    } else {
        POSIT32_NAMES[f - F32_FUNCS]
    }
}

/// Display label for report rows: f32 names bare, posit ids prefixed.
pub fn func_label(func: u8) -> String {
    if is_posit(func) {
        format!("posit32_{}", func_name(func))
    } else {
        func_name(func).to_owned()
    }
}

/// Batched evaluation of an f32 id over a staged slice.
#[inline]
pub(crate) fn f32_slice_eval(func: u8, xs: &[f32], out: &mut [f32]) {
    (F32_ROWS[fold(func).min(F32_FUNCS - 1)].slice)(xs, out)
}

/// Batched evaluation of a posit id over a chunk (routes through
/// `eval_slice_posit32` so the `runtime.slice.posit32.*` counters see
/// serving traffic).
#[inline]
pub(crate) fn posit_slice_eval(func: u8, xs: &[Posit32], out: &mut [Posit32]) {
    let ok = slice::eval_slice_posit32(func_name(func), xs, out).is_ok();
    debug_assert!(ok, "posit table names always dispatch");
}

/// Scalar reference for an id (used by harnesses to verify that served
/// responses are bit-identical to the scalar two-tier functions).
pub fn scalar_eval_bits(func: u8, x_bits: u32) -> u32 {
    if is_posit(func) {
        rlibm_math::eval_posit32_by_name(func_name(func), Posit32::from_bits(x_bits))
            .map_or(0, Posit32::to_bits)
    } else {
        rlibm_math::eval_f32_by_name(func_name(func), f32::from_bits(x_bits))
            .map_or(0, f32::to_bits)
    }
}

/// Counts completions whose served bits differ from the scalar two-tier
/// reference — the harnesses' shared "zero mis-rounded outputs escape"
/// check (serve_bench asserts it on every run, chaos_bench under
/// injection).
pub fn count_mismatches(completions: &[crate::Completion]) -> u64 {
    completions
        .iter()
        .filter(|c| c.y_bits != scalar_eval_bits(c.func, c.x_bits))
        .count() as u64
}

/// Draws a function id: `posit_permille` of traffic (out of 1000) goes
/// to the posit table, the rest spreads uniformly over the f32 table.
pub fn pick_func(rng: &mut XorShift64, posit_permille: u32) -> u8 {
    if rng.next_u64() % 1000 < posit_permille as u64 {
        (F32_FUNCS as u64 + rng.next_u64() % (NUM_FUNCS - F32_FUNCS) as u64) as u8
    } else {
        (rng.next_u64() % F32_FUNCS as u64) as u8
    }
}

/// Synthesizes one request payload for the id.
pub fn synth_bits(rng: &mut XorShift64, func: u8) -> u32 {
    if is_posit(func) {
        rng.next_u32()
    } else {
        rlibm_fp::rng::draw_biased_f32(rng, func_name(func)).to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_cover_both_tables() {
        for f in 0..NUM_FUNCS as u8 {
            assert_eq!(is_posit(f), f >= F32_FUNCS as u8);
            assert!(!func_name(f).is_empty());
        }
        assert_eq!(func_label(0), "ln");
        assert_eq!(func_label(10), "posit32_ln");
    }

    #[test]
    fn scalar_reference_matches_direct_calls() {
        let x = 1.7f32;
        assert_eq!(scalar_eval_bits(3, x.to_bits()), rlibm_math::exp(x).to_bits());
        let p = Posit32::from_f64(2.5);
        assert_eq!(
            scalar_eval_bits(13, p.to_bits()),
            rlibm_math::eval_posit32_by_name("exp", p).map_or(0, Posit32::to_bits)
        );
    }

    #[test]
    fn pick_respects_posit_share() {
        let mut rng = XorShift64::new(7);
        let mut posit = 0u32;
        for _ in 0..10_000 {
            let f = pick_func(&mut rng, 250);
            assert!((f as usize) < NUM_FUNCS);
            posit += u32::from(is_posit(f));
        }
        assert!((2000..3000).contains(&posit), "got {posit} posit picks");
        let mut rng = XorShift64::new(8);
        assert!((0..10_000).all(|_| !is_posit(pick_func(&mut rng, 0))));
    }
}
