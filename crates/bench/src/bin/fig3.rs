//! Reproduces **Figure 3**: speedup of RLIBM-32's float functions over
//! (a) the float-libm model, (b) the double-libm model, and (c) the
//! CR-LIBM model — now measuring the two-tier implementation three ways:
//!
//! * `fast` — the shipping scalar path (plain-double kernel, certified
//!   dd fallback inside the unsafe rounding bands);
//! * `dd` — the pure double-double + round-to-odd kernel (what every
//!   call paid before the two-tier split);
//! * `batched` — [`rlibm_math::eval_slice_f32`] over the same inputs.
//!
//! Alongside the table it emits a machine-readable `BENCH_fig3.json`
//! (schema `rlibm-bench/fig3/v2` — v2 adds a top-level `tables` section
//! with the packed/unpacked lookup-table footprints), re-parsed and
//! schema-checked before the process exits, and prints the dd-fallback
//! rate observed on the timing workload (the counters are always on in
//! this crate).
//!
//! Usage: `cargo run -p rlibm-bench --release --bin fig3 -- \
//!             [n_inputs] [--quick] [--out PATH]`
//!
//! `--quick` shrinks the workload and repetition count for CI smoke
//! runs; pair it with `--out target/...` so it never clobbers the
//! committed full-run `BENCH_fig3.json`.

use rlibm_bench::json::{write_validated, Json};
use rlibm_bench::timing::{fmt_speedup, geomean, ns_per_call};
use rlibm_bench::workloads::timing_inputs_f32;
use rlibm_math::stats;
use rlibm_mp::Func;

pub const SCHEMA: &str = "rlibm-bench/fig3/v2";
pub const PER_FN_FIELDS: &[&str] = &[
    "ns_fast",
    "ns_dd",
    "ns_batched",
    "ns_float_libm",
    "ns_double_libm",
    "ns_crlibm",
    "fallback_rate",
];

struct Cli {
    n: usize,
    reps: usize,
    quick: bool,
    out: String,
    /// `--only a,b`: measure just these functions, for fast iteration
    /// while optimizing a single kernel. Partial runs never write the
    /// JSON doc — the committed BENCH file is always a full sweep.
    only: Option<Vec<String>>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        n: 4096,
        reps: 5,
        quick: false,
        out: "BENCH_fig3.json".to_string(),
        only: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => {
                cli.quick = true;
                cli.n = 256;
                cli.reps = 2;
            }
            "--out" => cli.out = args.next().expect("--out requires a path"),
            "--only" => {
                let list = args.next().expect("--only requires a comma-separated list");
                cli.only = Some(list.split(',').map(str::to_string).collect());
            }
            other => cli.n = other.parse().unwrap_or_else(|_| panic!("bad arg '{other}'")),
        }
    }
    cli
}

fn main() {
    let cli = parse_cli();
    assert!(stats::enabled(), "bench builds carry the tier counters");
    println!(
        "Figure 3: RLIBM-32 float functions, two-tier measurement (inputs/function: {}{})\n",
        cli.n,
        if cli.quick { ", quick mode" } else { "" }
    );
    println!(
        "{:>8} | {:>9} | {:>7} | {:>12} | {:>8} | {:>14} | {:>15} | {:>13} | {:>9}",
        "float fn",
        "fast (ns)",
        "dd (ns)",
        "batched (ns)",
        "fast/dd",
        "vs float-libm",
        "vs double-libm",
        "vs CR-LIBM",
        "fallback"
    );
    println!("{}", "-".repeat(116));

    // Timings are the min over `reps` full passes of the whole sweep
    // (each pass measures every function and model once) rather than
    // `reps` back-to-back repetitions per row: on shared hosts,
    // slowdown windows last seconds, and interleaving keeps one window
    // from poisoning every repetition of a single row.
    let mut best = vec![[f64::INFINITY; 6]; Func::ALL.len()];
    for _ in 0..cli.reps {
        for (fi, f) in Func::ALL.iter().enumerate() {
            let name = f.name();
            if let Some(only) = &cli.only {
                if !only.iter().any(|o| o == name) {
                    continue;
                }
            }
            let xs = timing_inputs_f32(name, cli.n, 42);
            let fast_fn = rlibm_math::f32_fn_by_name(name).expect("known name");
            let dd_fn = rlibm_math::f32_dd_fn_by_name(name).expect("known name");
            let base_fn = rlibm_math::baseline_f32_fn_by_name(name).expect("known name");
            let fast = ns_per_call(&xs, 2, fast_fn);
            let dd = ns_per_call(&xs, 2, dd_fn);
            let mut out = vec![0.0f32; xs.len()];
            let batched = ns_per_call(&[0usize], 2, |_| {
                rlibm_math::eval_slice_f32(name, &xs, &mut out).expect("known name");
                out[0]
            }) / xs.len() as f64;
            let fl = ns_per_call(&xs, 2, base_fn);
            let db = ns_per_call(&xs, 2, |x| {
                rlibm_math::baselines::double64::to_f32(name, x)
            });
            let cr = if matches!(f, Func::SinPi | Func::CosPi) {
                db // CR-LIBM has no sinpi/cospi; the paper compares these to double-libm.
            } else {
                ns_per_call(&xs, 2, |x| rlibm_math::baselines::crlibm::to_f32(name, x))
            };
            let b = &mut best[fi];
            for (slot, v) in [fast, dd, batched, fl, db, cr].into_iter().enumerate() {
                b[slot] = b[slot].min(v);
            }
        }
    }

    let (mut s_dd, mut s_f, mut s_d, mut s_c, mut s_b) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rows = Vec::new();
    for (fi, f) in Func::ALL.iter().enumerate() {
        let name = f.name();
        if let Some(only) = &cli.only {
            if !only.iter().any(|o| o == name) {
                continue;
            }
        }
        let xs = timing_inputs_f32(name, cli.n, 42);
        let fast_fn = rlibm_math::f32_fn_by_name(name).expect("known name");

        // Fallback rate: one untimed sweep between counter reset/read, so
        // the number is per-workload-input, not per-timing-iteration.
        stats::reset();
        for &x in &xs {
            std::hint::black_box(fast_fn(x));
        }
        let slot = stats::f32_slot_by_name(name).expect("known name");
        let rate = stats::tier_dd(slot) as f64 / xs.len() as f64;

        let [fast, dd, batched, fl, db, cr] = best[fi];
        s_dd.push(dd / fast);
        s_f.push(fl / fast);
        s_d.push(db / fast);
        s_c.push(cr / fast);
        s_b.push(fast / batched);
        println!(
            "{:>8} | {:>9.1} | {:>7.1} | {:>12.1} | {:>8} | {:>14} | {:>15} | {:>13} | {:>8.3}%",
            name,
            fast,
            dd,
            batched,
            fmt_speedup(dd / fast),
            fmt_speedup(fl / fast),
            fmt_speedup(db / fast),
            fmt_speedup(cr / fast),
            rate * 100.0
        );
        rows.push(
            Json::obj()
                .set("name", name)
                .set("ns_fast", fast)
                .set("ns_dd", dd)
                .set("ns_batched", batched)
                .set("ns_float_libm", fl)
                .set("ns_double_libm", db)
                .set("ns_crlibm", cr)
                .set("fallback_rate", rate),
        );
    }
    println!("{}", "-".repeat(116));
    println!(
        "{:>8} | {:>9} | {:>7} | {:>12} | {:>8} | {:>14} | {:>15} | {:>13} |",
        "geomean",
        "",
        "",
        "",
        fmt_speedup(geomean(&s_dd)),
        fmt_speedup(geomean(&s_f)),
        fmt_speedup(geomean(&s_d)),
        fmt_speedup(geomean(&s_c))
    );
    println!(
        "\nfast/dd is the two-tier payoff (acceptance bar: >= 1.50x geomean);\n\
         'fallback' is the share of workload inputs that needed the dd\n\
         kernel. Paper reference points: 1.1x over glibc float, 1.2x over\n\
         glibc double, 2x over CR-LIBM. Absolute ns differ (different\n\
         hardware + Rust harness); the ordering RLIBM >= double-repurposing\n\
         >= CR-LIBM is the reproduced shape."
    );

    let doc = Json::obj()
        .set("schema", SCHEMA)
        .set("quick", cli.quick)
        .set("n_inputs", cli.n as f64)
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
                .set("fast_vs_dd", geomean(&s_dd))
                .set("fast_vs_float_libm", geomean(&s_f))
                .set("fast_vs_double_libm", geomean(&s_d))
                .set("fast_vs_crlibm", geomean(&s_c))
                .set("batched_vs_fast", geomean(&s_b)),
        );
    if cli.only.is_some() {
        println!("\npartial run (--only): not writing {}", cli.out);
        return;
    }
    write_validated(&cli.out, &doc, SCHEMA, PER_FN_FIELDS).expect("write BENCH json");
    println!("\nwrote {} (schema {SCHEMA}, parsed + validated)", cli.out);
}
