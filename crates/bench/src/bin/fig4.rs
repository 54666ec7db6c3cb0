//! Reproduces **Figure 4**: speedup of RLIBM-32's posit32 functions over
//! math libraries created by re-purposing double-precision functions —
//! measuring, like `fig3`, the two-tier split (`fast` scalar path vs the
//! pure `dd` kernel) plus [`rlibm_math::eval_slice_posit32`] batching,
//! and emitting a machine-readable `BENCH_fig4.json` (schema
//! `rlibm-bench/fig4/v1`, re-parsed and schema-checked before exit).
//!
//! Usage: `cargo run -p rlibm-bench --release --bin fig4 -- \
//!             [n_inputs] [--quick] [--out PATH]`

use rlibm_bench::json::{write_validated, Json};
use rlibm_bench::timing::{fmt_speedup, geomean, ns_per_call};
use rlibm_bench::workloads::timing_inputs_posit32;
use rlibm_math::stats;
use rlibm_mp::Func;

pub const SCHEMA: &str = "rlibm-bench/fig4/v1";
pub const PER_FN_FIELDS: &[&str] = &[
    "ns_fast",
    "ns_dd",
    "ns_batched",
    "ns_double_libm",
    "fallback_rate",
];

fn main() {
    let mut n: usize = 4096;
    let mut reps = 5usize;
    let mut quick = false;
    let mut out_path = "BENCH_fig4.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => {
                quick = true;
                n = 256;
                reps = 2;
            }
            "--out" => out_path = args.next().expect("--out requires a path"),
            other => n = other.parse().unwrap_or_else(|_| panic!("bad arg '{other}'")),
        }
    }
    assert!(stats::enabled(), "bench builds carry the tier counters");
    println!(
        "Figure 4: RLIBM-32 posit32 functions, two-tier measurement (inputs/function: {n}{})\n",
        if quick { ", quick mode" } else { "" }
    );
    println!(
        "{:>8} | {:>9} | {:>7} | {:>12} | {:>8} | {:>22} | {:>9}",
        "posit fn", "fast (ns)", "dd (ns)", "batched (ns)", "fast/dd", "vs repurposed double", "fallback"
    );
    println!("{}", "-".repeat(94));
    let (mut s_dd, mut s_p, mut s_b) = (Vec::new(), Vec::new(), Vec::new());
    let mut rows = Vec::new();
    for f in Func::POSIT {
        let name = f.name();
        let xs = timing_inputs_posit32(name, n, 43);
        let fast_fn = rlibm_math::posit32_fn_by_name(name).expect("known name");
        let dd_fn = rlibm_math::posit32_dd_fn_by_name(name).expect("known name");

        stats::reset();
        for &x in &xs {
            std::hint::black_box(fast_fn(x));
        }
        let slot = stats::posit32_slot_by_name(name).expect("known name");
        let rate = stats::tier_dd(slot) as f64 / xs.len() as f64;

        let fast = ns_per_call(&xs, reps, fast_fn);
        let dd = ns_per_call(&xs, reps, dd_fn);
        let mut out = vec![rlibm_posit::Posit32::ZERO; xs.len()];
        let batched = ns_per_call(&[0usize], reps, |_| {
            rlibm_math::eval_slice_posit32(name, &xs, &mut out).expect("known name");
            out[0]
        }) / xs.len() as f64;
        let db = ns_per_call(&xs, reps, |x| {
            rlibm_math::baselines::double64::to_posit32(name, x)
        });

        s_dd.push(dd / fast);
        s_p.push(db / fast);
        s_b.push(fast / batched);
        println!(
            "{:>8} | {:>9.1} | {:>7.1} | {:>12.1} | {:>8} | {:>22} | {:>8.3}%",
            name,
            fast,
            dd,
            batched,
            fmt_speedup(dd / fast),
            fmt_speedup(db / fast),
            rate * 100.0
        );
        rows.push(
            Json::obj()
                .set("name", name)
                .set("ns_fast", fast)
                .set("ns_dd", dd)
                .set("ns_batched", batched)
                .set("ns_double_libm", db)
                .set("fallback_rate", rate),
        );
    }
    println!("{}", "-".repeat(94));
    println!(
        "{:>8} | {:>9} | {:>7} | {:>12} | {:>8} | {:>22} |",
        "geomean",
        "",
        "",
        "",
        fmt_speedup(geomean(&s_dd)),
        fmt_speedup(geomean(&s_p))
    );
    println!(
        "\nPaper reference: 1.1x over glibc/Intel double, 1.4x over CR-LIBM\n\
         — and unlike all of those, every result here is correctly rounded\n\
         (Table 2)."
    );

    let doc = Json::obj()
        .set("schema", SCHEMA)
        .set("quick", quick)
        .set("n_inputs", n as f64)
        .set("functions", rows)
        .set(
            "geomean",
            Json::obj()
                .set("fast_vs_dd", geomean(&s_dd))
                .set("fast_vs_double_libm", geomean(&s_p))
                .set("batched_vs_fast", geomean(&s_b)),
        );
    write_validated(&out_path, &doc, SCHEMA, PER_FN_FIELDS).expect("write BENCH json");
    println!("\nwrote {out_path} (schema {SCHEMA}, parsed + validated)");
}
