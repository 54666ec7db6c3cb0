//! `generate`: the generator pipeline per function — oracle rounding
//! intervals (Algorithm 1 with the f64 component oracle of Algorithm 2),
//! reduced-interval deduction and merge, and the CEGIS `gen_polynomial`
//! run (Algorithm 4) — on the ten fp16 domains of the gen_bench harness.
//! Each pass runs on a fresh thread, so the oracle's thread-local Ziv
//! caches start cold as in a real generator run. The domains are
//! exhaustive: the seed has no effect here.

use crate::child::Ctx;
use crate::inputs::Fnv;
use crate::report::Sink;
use crate::spans;
use crate::stats::median;
use rlibm_core::reduced::ReductionCase;
use rlibm_core::validate::all_16bit;
use rlibm_core::{
    deduce_reduced_intervals, gen_polynomial, merge_by_reduced_input, rounding_interval,
    PolyGenConfig,
};
use rlibm_fp::{Half, Representation};
use rlibm_mp::oracle::{
    is_special_case, try_correctly_rounded, try_correctly_rounded_f64, Func, DEFAULT_PREC_CEILING,
};
use std::time::{Duration, Instant};

/// A smoke run keeps every this-many-th input of each domain.
const SMOKE_STRIDE: usize = 8;

/// One function's generation problem: its fp16 inputs and term set.
struct Domain {
    func: Func,
    terms: Vec<u32>,
    xs: Vec<Half>,
}

/// The gen_bench domains, each sized so generation succeeds: the log
/// family on `[1, 2)`, the exp family on `±[2^-8, 2^-2]`, sinh/cosh on
/// `[2^-6, 2^-2]`, sinpi/cospi on `[2^-8, 2^-2]`, with term sets matching
/// each function's parity.
fn domains(smoke: bool) -> Vec<Domain> {
    let spec: [(Func, Vec<u32>, f64, f64, bool); 10] = [
        (Func::Ln, (0..=7).collect(), 1.0, 2.0, false),
        (Func::Log2, (0..=7).collect(), 1.0, 2.0, false),
        (Func::Log10, (0..=7).collect(), 1.0, 2.0, false),
        (
            Func::Exp,
            (0..=6).collect(),
            2f64.powi(-8),
            2f64.powi(-2),
            true,
        ),
        (
            Func::Exp2,
            (0..=6).collect(),
            2f64.powi(-8),
            2f64.powi(-2),
            true,
        ),
        (
            Func::Exp10,
            (0..=6).collect(),
            2f64.powi(-8),
            2f64.powi(-2),
            true,
        ),
        (
            Func::Sinh,
            vec![1, 3, 5],
            2f64.powi(-6),
            2f64.powi(-2),
            false,
        ),
        (
            Func::Cosh,
            vec![0, 2, 4],
            2f64.powi(-6),
            2f64.powi(-2),
            false,
        ),
        (
            Func::SinPi,
            vec![1, 3, 5, 7],
            2f64.powi(-8),
            2f64.powi(-2),
            false,
        ),
        // x^6 is needed: at 1/4 the degree-4 truncation error exceeds a
        // Half rounding interval.
        (
            Func::CosPi,
            vec![0, 2, 4, 6],
            2f64.powi(-8),
            2f64.powi(-2),
            false,
        ),
    ];
    spec.into_iter()
        .map(|(func, terms, lo, hi, both_signs)| {
            let xs = all_16bit::<Half>()
                .filter(|x| {
                    let v = x.to_f64();
                    v.is_finite()
                        && (lo..hi).contains(&v.abs())
                        && (both_signs || v > 0.0)
                        && !is_special_case(func, v)
                })
                .step_by(if smoke { SMOKE_STRIDE } else { 1 })
                .collect();
            Domain { func, terms, xs }
        })
        .collect()
}

/// One function's phase times and outcome in one pass.
struct Outcome {
    oracle: Duration,
    reduced: Duration,
    polygen: Duration,
    lp_calls: usize,
    cegis_rounds: usize,
    final_sample: usize,
    /// Oracle calls that failed plus a failed deduction or generation.
    failed: u64,
}

fn generate(d: &Domain) -> Outcome {
    let name = d.func.name();
    let mut out = Outcome {
        oracle: Duration::ZERO,
        reduced: Duration::ZERO,
        polygen: Duration::ZERO,
        lp_calls: 0,
        cegis_rounds: 0,
        final_sample: 0,
        failed: 0,
    };
    let t = Instant::now();
    let mut cases = Vec::with_capacity(d.xs.len());
    {
        let _span = spans::enter(&format!("oracle.{name}"));
        for &x in &d.xs {
            let xf = x.to_f64();
            let Ok(y) = try_correctly_rounded::<Half>(d.func, x, DEFAULT_PREC_CEILING) else {
                out.failed += 1;
                continue;
            };
            let Some(target) = rounding_interval(y) else {
                continue;
            };
            // Identity range reduction: the reduced input is the input.
            match try_correctly_rounded_f64(d.func, xf, DEFAULT_PREC_CEILING) {
                Ok(cv) => cases.push(ReductionCase {
                    x: xf,
                    target,
                    r: xf,
                    component_values: vec![cv],
                }),
                Err(_) => out.failed += 1,
            }
        }
    }
    out.oracle = t.elapsed();
    let t = Instant::now();
    let merged = {
        let _span = spans::enter(&format!("reduced.{name}"));
        deduce_reduced_intervals(&cases, &|vals, _| vals[0])
            .and_then(|c| merge_by_reduced_input(c.first().map_or(&[][..], Vec::as_slice), 0))
    };
    out.reduced = t.elapsed();
    let Ok(merged) = merged else {
        out.failed += 1;
        return out;
    };
    let t = Instant::now();
    let cfg = PolyGenConfig {
        terms: d.terms.clone(),
        ..Default::default()
    };
    let result = {
        let _span = spans::enter(&format!("polygen.{name}"));
        gen_polynomial(&merged, &cfg)
    };
    out.polygen = t.elapsed();
    match result {
        Ok((_, stats)) => {
            out.lp_calls = stats.lp_calls;
            out.cegis_rounds = stats.cegis_rounds;
            out.final_sample = stats.final_sample;
        }
        Err(_) => out.failed += 1,
    }
    out
}

fn lp_pivots() -> [u64; 2] {
    let snap = rlibm_obs::snapshot();
    ["lp.f64.pivots", "lp.exact.pivots"].map(|c| snap.counter(c).unwrap_or(0))
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let smoke = ctx.smoke;
    let domains = ctx.setup(|| Ok(domains(smoke)))?;
    let inputs: usize = domains.iter().map(|d| d.xs.len()).sum();
    if domains.iter().any(|d| d.xs.is_empty()) {
        return Err("a generation domain is empty".into());
    }
    let mut fnv = Fnv::new();
    for d in &domains {
        fnv.bytes(d.func.name().as_bytes());
        d.xs.iter().for_each(|x| fnv.u32(x.to_bits_u32()));
    }
    ctx.sink
        .note("inputs_fnv", format!("{:#018x}", fnv.finish()));

    let pivots_before = lp_pivots();
    let mut pass_s = Vec::new();
    let mut oracle_ns_input = Vec::new();
    let mut reduced_ms = Vec::new();
    let mut polygen_ms: Vec<Vec<f64>> = vec![Vec::new(); domains.len()];
    let mut last = Vec::new();
    let mut passes = ctx.passes();
    while passes.next(&mut ctx.host) {
        let _pass = spans::enter("pass");
        let parent = spans::current();
        let t = Instant::now();
        let outcomes = std::thread::scope(|s| {
            s.spawn(|| {
                let _thread = spans::enter_under(parent, "generate.thread");
                domains.iter().map(generate).collect::<Vec<_>>()
            })
            .join()
        })
        .map_err(|_| "generator thread panicked".to_string())?;
        pass_s.push(t.elapsed().as_secs_f64());
        let oracle: Duration = outcomes.iter().map(|o| o.oracle).sum();
        oracle_ns_input.push(oracle.as_nanos() as f64 / inputs as f64);
        reduced_ms.push(
            outcomes
                .iter()
                .map(|o| o.reduced)
                .sum::<Duration>()
                .as_secs_f64()
                * 1e3,
        );
        for (ms, o) in polygen_ms.iter_mut().zip(&outcomes) {
            ms.push(o.polygen.as_secs_f64() * 1e3);
        }
        let failed = outcomes.iter().map(|o| o.failed).sum();
        ctx.sink.check((inputs + domains.len()) as u64, failed);
        last = outcomes;
    }

    let n = pass_s.len() as u64;
    ctx.sink.e2e(
        "rate_mops",
        inputs as f64 / median(&pass_s) / 1e6,
        "Mop/s",
        n,
    );
    ctx.sink
        .layer("oracle.ns_input", median(&oracle_ns_input), "ns", n);
    ctx.sink.layer("reduced.ms", median(&reduced_ms), "ms", n);
    for (d, v) in domains.iter().zip(&polygen_ms) {
        ctx.sink
            .layer(format!("polygen.{}.ms", d.func.name()), median(v), "ms", n);
    }
    let sum = |f: fn(&Outcome) -> usize| last.iter().map(f).sum::<usize>() as f64;
    ctx.sink
        .layer("polygen.lp_calls", sum(|o| o.lp_calls), "count", 1);
    ctx.sink
        .layer("polygen.cegis_rounds", sum(|o| o.cegis_rounds), "count", 1);
    ctx.sink
        .layer("polygen.final_sample", sum(|o| o.final_sample), "count", 1);
    if rlibm_obs::enabled() {
        report_pivots(pivots_before, n, &mut ctx.sink);
    }
    Ok(())
}

/// LP pivots per pass, from the traced build's metric registry.
fn report_pivots(before: [u64; 2], passes: u64, sink: &mut Sink) {
    let after = lp_pivots();
    for (i, name) in ["lp.f64.pivots", "lp.exact.pivots"].into_iter().enumerate() {
        sink.layer(
            name,
            (after[i] - before[i]) as f64 / passes as f64,
            "count",
            passes,
        );
    }
}
