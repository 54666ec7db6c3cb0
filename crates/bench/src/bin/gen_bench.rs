//! Generation-side benchmark: times the two hot phases of the paper's
//! pipeline per function — the Ziv **oracle** sweep that constructs
//! rounding intervals (Algorithm 1 + the per-component `f64` oracle of
//! Algorithm 2) and the CEGIS **`gen_polynomial`** run (Algorithm 4,
//! sampling + LP + counterexample rounds) — and emits a schema-checked
//! `BENCH_gen.json` (schema `rlibm-bench/gen/v1`) diffable by
//! `bench_compare`, so generator-side regressions can't land silently.
//!
//! Workloads are identity-reduction Half (fp16) runs on per-function
//! domains sized so every generation *succeeds* (the bench panics if one
//! goes infeasible — a silent `Err` would time the failure path):
//! log family on `[1, 2)`, exp family on `±[2^-8, 2^-2]`, sinh/cosh on
//! `[2^-6, 2^-2]`, sinpi/cospi on `[2^-8, 2^-2]`, with odd/even term
//! sets matching each function's parity.
//!
//! Timing protocol:
//!
//! * `ns_oracle` — per-input ns for the full oracle case construction
//!   (`try_correctly_rounded::<Half>` + `rounding_interval` + the f64
//!   component oracle), best of `reps` sweeps, **each sweep on a freshly
//!   spawned thread** so the thread-local Ziv caches start cold every
//!   rep and the number deterministically measures the cold path instead
//!   of whatever cache state earlier reps left behind.
//! * `ns_gen_poly` — wall time of one `gen_polynomial` call on the
//!   merged reduced constraints, best of `reps` (the call is
//!   deterministic, so min-of-reps isolates scheduler noise).
//!
//! Rows also carry non-`ns_*` context fields (`n_constraints`,
//! `lp_calls`, `cegis_rounds`, `final_sample`); `bench_compare` ignores
//! them by design and diffs only the shared `ns_*` fields.
//!
//! Usage: `cargo run -p rlibm-bench --release --bin gen_bench -- \
//!             [--quick] [--out PATH]`

use rlibm_bench::json::{check_bench_schema, write_validated, Json};
use rlibm_bench::timing::geomean;
use rlibm_core::reduced::ReductionCase;
use rlibm_core::validate::all_16bit;
use rlibm_core::{
    deduce_reduced_intervals, gen_polynomial, merge_by_reduced_input, rounding_interval,
    PolyGenConfig, ReducedConstraint,
};
use rlibm_fp::Half;
use rlibm_mp::oracle::{
    is_special_case, try_correctly_rounded, try_correctly_rounded_f64, DEFAULT_PREC_CEILING,
};
use rlibm_mp::Func;
use std::time::Instant;

pub const SCHEMA: &str = "rlibm-bench/gen/v1";
pub const PER_FN_FIELDS: &[&str] = &["ns_gen_poly", "ns_oracle"];

struct Cli {
    reps: usize,
    quick: bool,
    out: String,
}

fn parse_cli() -> Cli {
    let mut cli = Cli { reps: 3, quick: false, out: "BENCH_gen.json".to_string() };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => {
                cli.quick = true;
                cli.reps = 1;
            }
            "--out" => cli.out = args.next().expect("--out requires a path"),
            other => cli.reps = other.parse().unwrap_or_else(|_| panic!("bad arg '{other}'")),
        }
    }
    cli
}

/// Per-function generation workload: the input domain (over f64-widened
/// Half values) and the polynomial term exponents.
struct Workload {
    func: Func,
    terms: Vec<u32>,
    lo: f64,
    hi: f64,
    both_signs: bool,
}

fn workloads() -> Vec<Workload> {
    let w = |func, terms: Vec<u32>, lo: f64, hi: f64, both_signs| Workload {
        func,
        terms,
        lo,
        hi,
        both_signs,
    };
    vec![
        // Log family on one binade (the pipeline e2e test proves this
        // shape feasible for log2 at degree 7).
        w(Func::Ln, (0..=7).collect(), 1.0, 2.0, false),
        w(Func::Log2, (0..=7).collect(), 1.0, 2.0, false),
        w(Func::Log10, (0..=7).collect(), 1.0, 2.0, false),
        // Exp family near zero, both signs.
        w(Func::Exp, (0..=6).collect(), 2f64.powi(-8), 2f64.powi(-2), true),
        w(Func::Exp2, (0..=6).collect(), 2f64.powi(-8), 2f64.powi(-2), true),
        w(Func::Exp10, (0..=6).collect(), 2f64.powi(-8), 2f64.powi(-2), true),
        // Parity-matched term sets for the odd/even functions.
        w(Func::Sinh, vec![1, 3, 5], 2f64.powi(-6), 2f64.powi(-2), false),
        w(Func::Cosh, vec![0, 2, 4], 2f64.powi(-6), 2f64.powi(-2), false),
        w(Func::SinPi, vec![1, 3, 5, 7], 2f64.powi(-8), 2f64.powi(-2), false),
        // cospi needs the x^6 term: at x=1/4 the degree-4 truncation
        // error (pi x)^6/720 ~ 3.3e-4 exceeds a Half rounding interval.
        w(Func::CosPi, vec![0, 2, 4, 6], 2f64.powi(-8), 2f64.powi(-2), false),
    ]
}

fn inputs_for(w: &Workload, quick: bool) -> Vec<Half> {
    let in_domain = |v: f64| {
        let m = v.abs();
        (w.lo..w.hi).contains(&m) && (w.both_signs || v > 0.0)
    };
    let xs: Vec<Half> = all_16bit::<Half>()
        .filter(|x| {
            let v = x.to_f64();
            v.is_finite() && in_domain(v) && !is_special_case(w.func, v)
        })
        .collect();
    // Quick mode subsamples the domain; generation still runs end to end
    // (sampling keeps the first/last constraint, so the shape holds).
    if quick {
        xs.into_iter().step_by(8).collect()
    } else {
        xs
    }
}

/// One oracle case-construction pass over `inputs` (the per-input work
/// of the pipeline's `oracle_cases`, identity reduction). Returns the
/// cases so the caller can reuse the final pass's output.
fn oracle_pass(func: Func, inputs: &[Half]) -> Vec<ReductionCase> {
    let mut cases = Vec::with_capacity(inputs.len());
    for &x in inputs {
        let xf = x.to_f64();
        let y: Half = try_correctly_rounded(func, x, DEFAULT_PREC_CEILING)
            .unwrap_or_else(|e| panic!("{}: oracle failed on {xf}: {e:?}", func.name()));
        let Some(target) = rounding_interval(y) else { continue };
        let r = xf; // identity range reduction
        let cv = try_correctly_rounded_f64(func, r, DEFAULT_PREC_CEILING)
            .unwrap_or_else(|e| panic!("{}: f64 oracle failed on {r}: {e:?}", func.name()));
        cases.push(ReductionCase { x: xf, target, r, component_values: vec![cv] });
    }
    cases
}

/// Best-of-`reps` per-input oracle time, each rep on a fresh thread so
/// the thread-local Ziv caches are cold every time.
fn time_oracle(func: Func, inputs: &[Half], reps: usize) -> (f64, Vec<ReductionCase>) {
    let mut best = f64::INFINITY;
    let mut cases = Vec::new();
    for _ in 0..reps {
        let (ns, c) = std::thread::scope(|s| {
            s.spawn(|| {
                let t0 = Instant::now();
                let c = oracle_pass(func, inputs);
                (t0.elapsed().as_nanos() as f64 / inputs.len().max(1) as f64, c)
            })
            .join()
            .expect("oracle timing thread")
        });
        best = best.min(ns);
        cases = c;
    }
    (best, cases)
}

fn main() {
    let cli = parse_cli();
    println!(
        "Generation benchmark: oracle interval construction + gen_polynomial per function \
         (reps: {}{})\n",
        cli.reps,
        if cli.quick { ", quick mode" } else { "" }
    );
    println!(
        "{:>8} | {:>8} | {:>11} | {:>11} | {:>15} | {:>8} | {:>6} | {:>6}",
        "function", "inputs", "constraints", "oracle (ns)", "gen_poly (ms)", "lp_calls", "cegis", "sample"
    );
    println!("{}", "-".repeat(94));

    let mut rows = Vec::new();
    let mut total_inputs = 0usize;
    let (mut all_oracle, mut all_gen) = (Vec::new(), Vec::new());
    for w in workloads() {
        let name = w.func.name();
        let inputs = inputs_for(&w, cli.quick);
        assert!(!inputs.is_empty(), "{name}: empty workload domain");
        total_inputs += inputs.len();

        let (ns_oracle, cases) = time_oracle(w.func, &inputs, cli.reps);

        // Algorithm 2 + duplicate merge, untimed: one-component identity
        // reduction, so the output composition is the component itself.
        let per_component = deduce_reduced_intervals(&cases, &|vals, _| vals[0])
            .unwrap_or_else(|e| panic!("{name}: reduced-interval deduction failed: {e:?}"));
        let merged: Vec<ReducedConstraint> = merge_by_reduced_input(&per_component[0], 0)
            .unwrap_or_else(|e| panic!("{name}: constraint merge failed: {e:?}"));

        let cfg = PolyGenConfig { terms: w.terms.clone(), ..Default::default() };
        let mut best = f64::INFINITY;
        let mut last_stats = None;
        for _ in 0..cli.reps {
            let t0 = Instant::now();
            let (poly, stats) = gen_polynomial(&merged, &cfg)
                .unwrap_or_else(|e| panic!("{name}: generation failed: {e:?}"));
            best = best.min(t0.elapsed().as_nanos() as f64);
            std::hint::black_box(&poly);
            last_stats = Some(stats);
        }
        let stats = last_stats.expect("at least one rep");

        all_oracle.push(ns_oracle);
        all_gen.push(best);
        println!(
            "{:>8} | {:>8} | {:>11} | {:>11.0} | {:>15.2} | {:>8} | {:>6} | {:>6}",
            name,
            inputs.len(),
            merged.len(),
            ns_oracle,
            best / 1e6,
            stats.lp_calls,
            stats.cegis_rounds,
            stats.final_sample
        );
        rows.push(
            Json::obj()
                .set("name", name)
                .set("ns_gen_poly", best)
                .set("ns_oracle", ns_oracle)
                .set("n_inputs", inputs.len() as f64)
                .set("n_constraints", merged.len() as f64)
                .set("lp_calls", stats.lp_calls as f64)
                .set("cegis_rounds", stats.cegis_rounds as f64)
                .set("final_sample", stats.final_sample as f64),
        );
    }
    println!("{}", "-".repeat(94));
    println!(
        "{:>8} | {:>8} | {:>11} | {:>11.0} | {:>15.2} |",
        "geomean",
        "",
        "",
        geomean(&all_oracle),
        geomean(&all_gen) / 1e6
    );
    println!(
        "\nns_oracle is per input, cold Ziv caches (fresh thread per rep);\n\
         ns_gen_poly is one full Algorithm 4 run on the merged constraints.\n\
         Diff against a baseline with: bench_compare OLD.json NEW.json"
    );

    let doc = Json::obj()
        .set("schema", SCHEMA)
        .set("quick", cli.quick)
        .set("n_inputs", total_inputs as f64)
        .set("functions", rows)
        .set(
            "geomean",
            Json::obj()
                .set("ns_oracle", geomean(&all_oracle))
                .set("ns_gen_poly", geomean(&all_gen)),
        );
    write_validated(&cli.out, &doc, |d| check_bench_schema(d, SCHEMA, PER_FN_FIELDS)).expect("write BENCH json");
    println!("\nwrote {} (schema {SCHEMA}, parsed + validated)", cli.out);
}
