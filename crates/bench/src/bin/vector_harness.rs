//! The Section 4.3 vectorization-style harness: arrays of 1024 inputs
//! evaluated in a tight loop (the paper's second measurement methodology,
//! built to expose what batch-oriented evaluation gains). Compares
//! three regimes per function:
//!
//! * `scalar loop` — the two-tier scalar function called per element;
//! * `eval_slice`  — the structure-of-arrays batched API
//!   ([`rlibm_math::eval_slice_f32`]), which stages reduction, table
//!   lookup and Horner evaluation across the batch;
//! * `float-libm`  — the float baseline called per element.
//!
//! The posit32 rows (`posit32.<fn>`) time the same two API paths for the
//! eight posit functions: the scalar loop and
//! [`rlibm_math::eval_slice_posit32`].
//!
//! Every row also carries `ratio_batched`, its batched time over a
//! reference timed in the same pass on the same host: the float baseline
//! for f32 rows, the scalar loop for posit32 rows. `bench_compare
//! --fields ratio_` gates on these, so a loaded host slows both sides of
//! each ratio instead of tripping the gate.
//!
//! Emits `BENCH_vector.json` (schema `rlibm-bench/vector/v3` — v2 added
//! the packed/unpacked table-footprint section, v3 the posit32 rows and
//! `ratio_batched` — re-parsed and schema-checked before exit).
//!
//! Usage: `cargo run -p rlibm-bench --release --bin vector_harness -- \
//!             [--quick] [--out PATH]`

use rlibm_bench::json::{write_validated, Json};
use rlibm_bench::timing::{fmt_speedup, geomean, ns_per_call};
use rlibm_bench::workloads::{timing_inputs_f32, timing_inputs_posit32};
use rlibm_mp::Func;
use rlibm_posit::Posit32;

pub const SCHEMA: &str = "rlibm-bench/vector/v3";
pub const PER_FN_FIELDS: &[&str] = &["ns_scalar", "ns_batched", "ratio_batched"];

fn main() {
    const BATCH: usize = 1024; // the paper's array size
    let mut reps = 5usize;
    let mut quick = false;
    let mut out_path = "BENCH_vector.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => {
                quick = true;
                reps = 2;
            }
            "--out" => out_path = args.next().expect("--out requires a path"),
            other => panic!("bad arg '{other}'"),
        }
    }
    println!(
        "Vectorization harness: arrays of {BATCH} inputs{}\n",
        if quick { " (quick mode)" } else { "" }
    );
    println!(
        "{:>8} | {:>16} | {:>15} | {:>15} | {:>14}",
        "float fn", "scalar loop (ns)", "eval_slice (ns)", "float-libm (ns)", "batched/scalar"
    );
    println!("{}", "-".repeat(80));
    // Timings are taken as the min over `reps` full passes of the whole
    // sweep (each pass measures every function once), not `reps`
    // back-to-back sweeps of one function: on shared hosts, slowdown
    // windows last seconds, and interleaving keeps one window from
    // poisoning every repetition of a single row.
    let mut best = vec![[f64::INFINITY; 3]; Func::ALL.len()];
    let mut best_posit = vec![[f64::INFINITY; 2]; Func::POSIT.len()];
    for _ in 0..reps {
        for (fi, f) in Func::ALL.iter().enumerate() {
            let name = f.name();
            let xs = timing_inputs_f32(name, BATCH, 45);
            let scalar_fn = rlibm_math::f32_fn_by_name(name).expect("known name");
            let mut out = vec![0.0f32; BATCH];
            let scalar = ns_per_call(&[0usize], 2, |_| {
                for (o, &x) in out.iter_mut().zip(&xs) {
                    *o = scalar_fn(x);
                }
                out[0]
            }) / BATCH as f64;
            let batched = ns_per_call(&[0usize], 2, |_| {
                rlibm_math::eval_slice_f32(name, &xs, &mut out).expect("known name");
                out[0]
            }) / BATCH as f64;
            let base_fn = rlibm_math::baseline_f32_fn_by_name(name).expect("known name");
            let base = ns_per_call(&[0usize], 2, |_| {
                for (o, &x) in out.iter_mut().zip(&xs) {
                    *o = base_fn(x);
                }
                out[0]
            }) / BATCH as f64;
            let b = &mut best[fi];
            b[0] = b[0].min(scalar);
            b[1] = b[1].min(batched);
            b[2] = b[2].min(base);
        }
        for (fi, f) in Func::POSIT.iter().enumerate() {
            let name = f.name();
            let xs = timing_inputs_posit32(name, BATCH, 45);
            let scalar_fn = rlibm_math::posit32_fn_by_name(name).expect("known name");
            let mut out = vec![Posit32::ZERO; BATCH];
            let scalar = ns_per_call(&[0usize], 2, |_| {
                for (o, &x) in out.iter_mut().zip(&xs) {
                    *o = scalar_fn(x);
                }
                out[0]
            }) / BATCH as f64;
            let batched = ns_per_call(&[0usize], 2, |_| {
                rlibm_math::eval_slice_posit32(name, &xs, &mut out).expect("known name");
                out[0]
            }) / BATCH as f64;
            let b = &mut best_posit[fi];
            b[0] = b[0].min(scalar);
            b[1] = b[1].min(batched);
        }
    }
    let mut s_b = Vec::new();
    let mut rows = Vec::new();
    for (fi, f) in Func::ALL.iter().enumerate() {
        let name = f.name();
        let [scalar, batched, base] = best[fi];
        s_b.push(scalar / batched);
        println!(
            "{:>8} | {:>16.2} | {:>15.2} | {:>15.2} | {:>14}",
            name,
            scalar,
            batched,
            base,
            fmt_speedup(scalar / batched)
        );
        rows.push(
            Json::obj()
                .set("name", name)
                .set("ns_scalar", scalar)
                .set("ns_batched", batched)
                .set("ns_float_libm", base)
                .set("ratio_batched", batched / base),
        );
    }
    let geomean_row = |label: &str, speedups: &[f64]| {
        println!("{}", "-".repeat(80));
        println!(
            "{:>8} | {:>16} | {:>15} | {:>15} | {:>14}",
            label,
            "",
            "",
            "",
            fmt_speedup(geomean(speedups))
        );
        println!("{}", "-".repeat(80));
    };
    geomean_row("geomean", &s_b);
    let mut p_s_b = Vec::new();
    for (fi, f) in Func::POSIT.iter().enumerate() {
        let name = format!("posit32.{}", f.name());
        let [scalar, batched] = best_posit[fi];
        p_s_b.push(scalar / batched);
        println!(
            "{:>8} | {:>16.2} | {:>15.2} | {:>15} | {:>14}",
            f.name(),
            scalar,
            batched,
            "(posit32)",
            fmt_speedup(scalar / batched)
        );
        rows.push(
            Json::obj()
                .set("name", name.as_str())
                .set("ns_scalar", scalar)
                .set("ns_batched", batched)
                .set("ratio_batched", batched / scalar),
        );
    }
    geomean_row("posit32", &p_s_b);
    println!(
        "\nThe paper found RLIBM-32 within 5-10% of Intel's auto-vectorized\n\
         code while producing correct results for all inputs; here the\n\
         staged eval_slice path is what batching buys over the scalar loop."
    );

    let doc = Json::obj()
        .set("schema", SCHEMA)
        .set("quick", quick)
        .set("n_inputs", BATCH as f64)
        .set(
            "tables",
            Json::obj()
                .set("bytes_packed", rlibm_math::tables::TABLE_BYTES_PACKED as f64)
                .set("bytes_unpacked", rlibm_math::tables::TABLE_BYTES_UNPACKED as f64),
        )
        .set("functions", rows)
        .set(
            "geomean",
            Json::obj()
                .set("batched_vs_scalar", geomean(&s_b))
                .set("posit32_batched_vs_scalar", geomean(&p_s_b)),
        );
    write_validated(&out_path, &doc, SCHEMA, PER_FN_FIELDS).expect("write BENCH json");
    println!("\nwrote {out_path} (schema {SCHEMA}, parsed + validated)");
}
