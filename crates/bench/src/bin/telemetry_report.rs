//! Exercises every instrumented layer of the workspace and emits a
//! schema-checked telemetry snapshot (`TELEM_report.json`, schema
//! `rlibm-telem/v1`).
//!
//! Four phases, each lighting up one band of the metric namespace:
//!
//! 1. **Generator** — a real polynomial generation + exhaustive 16-bit
//!    validation (the paper's Table 3 shape), populating the
//!    `pipeline.*` spans, `polygen.*`, `lp.*` and `validate.*` metrics.
//! 2. **Oracle** — Ziv sweeps over all ten functions on domain-biased
//!    f32 inputs, populating `oracle.ziv.final_prec.<fn>` histograms
//!    and the escalation/cache/eval counters.
//! 3. **Runtime fallbacks** — per-function input sweeps through the
//!    two-tier entry points until each of the 18 `runtime.tier.dd.*`
//!    counters has fired (fallbacks are parts-per-million events, so
//!    the full run draws up to 20M inputs per function; `--quick` caps
//!    at 200k and settles for registered-at-zero presence).
//! 4. **Batched eval** — one `eval_slice_f32` call ticking the
//!    `runtime.slice.f32.*` counters.
//! 5. **Tiers** — the timing harness's f32 workload through every
//!    scalar front end, populating `runtime.tier.{prefix,dd}.*` and
//!    asserting the fast step carried >= 90% of in-domain calls (the
//!    cheap tier must be the common case or the band is mis-tuned).
//!
//! The binary asserts telemetry is compiled in (it is, in this crate),
//! asserts the snapshot's core sections are populated, prints a human
//! summary, and writes + re-parses + schema-validates the JSON.
//!
//! Usage: `cargo run -p rlibm-bench --release --bin telemetry_report -- \
//!             [seed] [--quick] [--out PATH]`

use rlibm_bench::json::write_validated;
use rlibm_bench::telem::{check_telem_schema, telem_to_json, TELEM_SCHEMA};
use rlibm_core::pipeline::{generate, GeneratorSpec};
use rlibm_core::validate::{all_16bit, validate};
use rlibm_fp::rng::{draw_biased_f32, XorShift64};
use rlibm_fp::Half;
use rlibm_math::stats;
use rlibm_mp::oracle::is_special_case;
use rlibm_mp::Func;
use rlibm_posit::Posit32;
use std::sync::Arc;

struct Cli {
    seed: u64,
    quick: bool,
    out: String,
}

fn parse_cli() -> Cli {
    let mut cli = Cli { seed: 42, quick: false, out: "TELEM_report.json".to_string() };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => cli.quick = true,
            "--out" => cli.out = args.next().expect("--out requires a path"),
            other => cli.seed = other.parse().unwrap_or_else(|_| panic!("bad arg '{other}'")),
        }
    }
    cli
}

/// Phase 1: run the generator end to end on a 16-bit target. Quick mode
/// uses a one-component exp2 spec on a narrow domain; the full run uses
/// the two-component sinpi double-angle reduction from the e2e suite.
fn exercise_generator(quick: bool) {
    let (func, inputs, spec) = if quick {
        let inputs: Vec<Half> = all_16bit::<Half>()
            .filter(|x| {
                let v = x.to_f64();
                v.is_finite() && !is_special_case(Func::Exp2, v) && v.abs() <= 0.25
            })
            .collect();
        (Func::Exp2, inputs, GeneratorSpec::identity(Func::Exp2, (0..=5).collect()))
    } else {
        let inputs: Vec<Half> = all_16bit::<Half>()
            .filter(|x| {
                let v = x.to_f64();
                v.is_finite()
                    && !is_special_case(Func::SinPi, v)
                    && (1.0 / 256.0..=0.5).contains(&v)
            })
            .collect();
        let mk_cfg = |terms: Vec<u32>| rlibm_core::ApproxConfig {
            polygen: rlibm_core::PolyGenConfig { terms, ..Default::default() },
            ..Default::default()
        };
        let spec = GeneratorSpec {
            func: Func::SinPi,
            components: vec![Func::SinPi, Func::CosPi],
            range_reduce: Arc::new(|x| x * 0.5),
            output_comp: Arc::new(|vals, _| 2.0 * vals[0] * vals[1]),
            approx_cfgs: vec![mk_cfg(vec![1, 3, 5]), mk_cfg(vec![0, 2, 4])],
        };
        (Func::SinPi, inputs, spec)
    };
    let g = generate(&spec, &inputs).expect("generation");
    let report =
        validate(func, |x: Half| Half::from_f64(g.eval(x.to_f64())), inputs.iter().copied());
    assert!(report.all_correct(), "generated {func:?} mis-rounds {} inputs", report.wrong);
    println!(
        "  generator: {:?} over {} inputs, all correctly rounded",
        func,
        inputs.len()
    );
}

/// Phase 2: Ziv sweeps — `per_fn` non-special f32 evaluations through
/// the oracle for every function.
fn exercise_oracle(seed: u64, per_fn: u32) {
    let mut rng = XorShift64::new(seed ^ 0x0B5E);
    for f in Func::ALL {
        let mut done = 0u32;
        // Biased draws land in-domain ~3/4 of the time; the bound is a
        // misconfiguration backstop, not an expected exit.
        for _ in 0..per_fn.saturating_mul(64) {
            if done == per_fn {
                break;
            }
            let x = draw_biased_f32(&mut rng, f.name());
            if !x.is_finite() || is_special_case(f, f64::from(x)) {
                continue;
            }
            std::hint::black_box(rlibm_mp::oracle::correctly_rounded::<f32>(f, x));
            done += 1;
        }
        assert!(done == per_fn, "{}: only {done}/{per_fn} oracle evals", f.name());
    }
    println!("  oracle: {} Ziv evaluations per function", per_fn);
}

/// Phase 3: drive the two-tier runtimes until each dd-tier counter has
/// fired, up to `cap` draws per function. Returns counters still at
/// their starting value.
fn exercise_fallbacks(seed: u64, cap: u64) -> Vec<String> {
    let mut missing = Vec::new();
    for (i, f) in Func::ALL.iter().enumerate() {
        let name = f.name();
        let fast = rlibm_math::f32_fn_by_name(name).expect("known name");
        let slot = stats::f32_slot_by_name(name).expect("known name");
        let before = stats::tier_dd(slot);
        let mut rng = XorShift64::new(seed ^ (i as u64 + 1));
        let mut draws = 0u64;
        while stats::tier_dd(slot) == before && draws < cap {
            std::hint::black_box(fast(draw_biased_f32(&mut rng, name)));
            draws += 1;
        }
        if stats::tier_dd(slot) == before {
            missing.push(format!("f32.{name}"));
        }
    }
    for (i, name) in rlibm_math::POSIT32_NAMES.into_iter().enumerate() {
        let fast = rlibm_math::posit32_fn_by_name(name).expect("known name");
        let slot = stats::posit32_slot_by_name(name).expect("known name");
        let before = stats::tier_dd(slot);
        let mut rng = XorShift64::new(seed ^ (0x100 + i as u64));
        let mut draws = 0u64;
        // Random posit bit patterns concentrate near 1, inside every
        // kernel's domain (cf. the fault sweep's posit strategy).
        while stats::tier_dd(slot) == before && draws < cap {
            std::hint::black_box(fast(Posit32::from_bits(rng.next_u32())));
            draws += 1;
        }
        if stats::tier_dd(slot) == before {
            missing.push(format!("posit32.{name}"));
        }
    }
    missing
}

/// Phase 5: the fast-step hit-rate check. Runs the kernel-domain
/// workload the timing harness times through every scalar front end and
/// returns the aggregate prefix-tier share of in-domain calls.
fn exercise_tiers(per_fn: usize) -> f64 {
    let mut prefix_total = 0u64;
    let mut total = 0u64;
    println!("\n{:>8} | {:>8} | {:>8} | {:>8}", "fn", "prefix", "dd", "prefix%");
    println!("{}", "-".repeat(41));
    for f in Func::ALL {
        let name = f.name();
        let fast = rlibm_math::f32_fn_by_name(name).expect("known name");
        let slot = stats::f32_slot_by_name(name).expect("known name");
        let before = (stats::tier_prefix(slot), stats::tier_dd(slot));
        for x in rlibm_bench::workloads::timing_inputs_f32(name, per_fn, 42) {
            std::hint::black_box(fast(x));
        }
        let dp = stats::tier_prefix(slot) - before.0;
        let dd = stats::tier_dd(slot) - before.1;
        let in_domain = dp + dd;
        assert!(in_domain > 0, "{name}: timing workload never reached the kernel");
        println!(
            "{:>8} | {:>8} | {:>8} | {:>7.2}%",
            name,
            dp,
            dd,
            100.0 * dp as f64 / in_domain as f64
        );
        prefix_total += dp;
        total += in_domain;
    }
    let rate = prefix_total as f64 / total as f64;
    assert!(
        rate >= 0.90,
        "prefix tier carried only {:.2}% of in-domain calls (need >= 90%)",
        rate * 100.0
    );
    rate
}

/// Phase 4: one batched evaluation to tick the slice counters.
fn exercise_slice(seed: u64) {
    let mut rng = XorShift64::new(seed ^ 0x51DE);
    let xs: Vec<f32> = (0..4096).map(|_| draw_biased_f32(&mut rng, "exp")).collect();
    let mut out = vec![0.0f32; xs.len()];
    rlibm_math::eval_slice_f32("exp", &xs, &mut out).expect("known name");
    std::hint::black_box(&out);
}

fn main() {
    let cli = parse_cli();
    assert!(
        rlibm_obs::enabled(),
        "telemetry_report requires the telemetry feature (on by default in rlibm-bench)"
    );
    println!(
        "Telemetry report: exercising all instrumented layers (seed {}{})\n",
        cli.seed,
        if cli.quick { ", quick mode" } else { "" }
    );

    // Start from a clean registry, then force every runtime counter in at
    // zero so the snapshot distinguishes "zero observed" from "unlinked".
    rlibm_obs::reset_all();
    stats::register_all();
    rlibm_mp::oracle::register_metrics();
    rlibm_lp::simplex::register_metrics();

    exercise_generator(cli.quick);
    exercise_oracle(cli.seed, if cli.quick { 60 } else { 2000 });
    let fallback_cap = if cli.quick { 200_000 } else { 20_000_000 };
    let missing = exercise_fallbacks(cli.seed, fallback_cap);
    exercise_slice(cli.seed);
    println!(
        "  runtime: fallback sweeps (cap {} draws/function), slice eval over 4096 lanes",
        fallback_cap
    );
    let tier_rate = exercise_tiers(if cli.quick { 1024 } else { 4096 });
    println!(
        "  tiers: prefix tier carried {:.2}% of in-domain calls on the timing workload",
        tier_rate * 100.0
    );

    let snap = rlibm_obs::snapshot();

    // Core-section assertions: a report missing these is a wiring bug.
    for f in Func::ALL {
        let name = format!("oracle.ziv.final_prec.{}", f.name());
        let h = snap
            .histogram(&name)
            .unwrap_or_else(|| panic!("{name} not in snapshot"));
        assert!(h.count > 0, "{name}: no Ziv samples recorded");
    }
    assert!(snap.counter("polygen.runs").unwrap_or(0) >= 1, "polygen.runs is zero");
    // The f64 layer fronts every LP; the exact layer only runs when a
    // proposal fails certification, so it is asserted present, not hot.
    assert!(snap.counter("lp.f64.solves").unwrap_or(0) >= 1, "lp.f64.solves is zero");
    assert!(snap.counter("lp.exact.solves").is_some(), "lp.exact.solves not registered");
    assert!(
        snap.span("pipeline.generate").map_or(0, |s| s.count) >= 1,
        "pipeline.generate span never closed"
    );
    let dd_counters: Vec<_> =
        snap.counters.iter().filter(|c| c.name.starts_with("runtime.tier.dd.")).collect();
    assert!(
        dd_counters.len() == 18,
        "expected 18 runtime.tier.dd.* counters, snapshot has {}",
        dd_counters.len()
    );
    let tier_counters =
        snap.counters.iter().filter(|c| c.name.starts_with("runtime.tier.")).count();
    assert!(
        tier_counters == 36,
        "expected 36 runtime.tier.* counters (2 tiers x 18 slots), snapshot has {tier_counters}"
    );

    println!("\n{:>34} | {:>12}", "counter", "value");
    println!("{}", "-".repeat(49));
    for c in &snap.counters {
        println!("{:>34} | {:>12}", c.name, c.value);
    }
    println!("\n{:>34} | {:>9} | {:>14} | {:>10}", "histogram/span", "count", "sum", "mean");
    println!("{}", "-".repeat(77));
    for h in snap.histograms.iter().chain(snap.spans.iter()) {
        let mean = if h.count == 0 { 0.0 } else { h.sum as f64 / h.count as f64 };
        println!("{:>34} | {:>9} | {:>14} | {:>10.1}", h.name, h.count, h.sum, mean);
    }

    let doc = telem_to_json(&snap, cli.quick, cli.seed);
    write_validated(&cli.out, &doc, check_telem_schema).expect("write TELEM json");
    println!("\nwrote {} (schema {TELEM_SCHEMA}, parsed + validated)", cli.out);

    if !missing.is_empty() {
        if cli.quick {
            println!(
                "note: no fallback observed within the quick cap for: {} \
                 (counters present at zero; the full run requires them nonzero)",
                missing.join(", ")
            );
        } else {
            eprintln!(
                "FAIL: no fallback observed within {} draws for: {}",
                fallback_cap,
                missing.join(", ")
            );
            std::process::exit(1);
        }
    }
}
