//! The timing harness: reproduces **Figure 3** (f32 speedups over the
//! float-libm, double-libm and CR-LIBM models), **Figure 4** (posit32
//! speedups over re-purposed double), the **§4.3** array harness (the
//! batched `eval_slice_*` columns) and **Figure 5** (`log2`/`log10`
//! speed against the number of sub-domains).
//!
//! Every (format, function) row times one array of 1024 inputs with a
//! fixed seed: the shipping scalar call, the pure double-double kernel,
//! the batched path and the baselines. Each timing is the min over
//! `reps` interleaved passes of the whole sweep: on shared hosts,
//! slowdown windows last seconds, and interleaving keeps one window from
//! poisoning every repetition of a single row. The dd-fallback rate
//! comes from one untimed pass between a counter reset and read.
//!
//! Writes `BENCH_timing.json` (see [`rlibm_bench::timing::document`]),
//! re-parsed and schema-checked before exit; the committed file is a
//! full run with `--features simd`. `--quick` cuts the passes and caps
//! the Figure 5 sweep at 2^6 sub-domains (the full sweep builds
//! 2^12-entry tables with the oracle).
//!
//! Usage: `cargo run -p rlibm-bench --release [--features simd] \
//!             --bin timing -- [--quick] [--out PATH]`

use std::hint::black_box;

use rlibm_bench::json::{check_bench_schema, write_validated, Json};
use rlibm_bench::sweep::{Base, SweepLog};
use rlibm_bench::timing::{self, fmt_speedup, geomeans, ns_per_input, Format, Row};
use rlibm_bench::timing::{BATCH, SCHEMA, SEED};
use rlibm_bench::workloads::{timing_inputs_f32, timing_inputs_posit32};
use rlibm_math::baselines::{crlibm, double64};
use rlibm_math::{baseline_f32_fn_by_name, eval_slice_f32, eval_slice_posit32, stats};
use rlibm_math::{f32_dd_fn_by_name, f32_fn_by_name, posit32_dd_fn_by_name, posit32_fn_by_name};
use rlibm_posit::Posit32;

const KNOWN: &str = "registry name";

/// Nanoseconds per input of `f` mapped over `xs` into `out`.
fn sweep<T: Copy>(xs: &[T], out: &mut [T], f: impl Fn(T) -> T) -> f64 {
    ns_per_input(xs.len(), || {
        for (o, &x) in out.iter_mut().zip(black_box(xs)) {
            *o = f(x);
        }
        black_box(&*out);
    })
}

/// Share of `xs` whose scalar call the dd tier shipped.
fn fallback_rate<T: Copy>(slot: Option<usize>, xs: &[T], f: Option<fn(T) -> T>) -> f64 {
    let f = f.expect(KNOWN);
    stats::reset();
    for &x in xs {
        black_box(f(x));
    }
    stats::tier_dd(slot.expect(KNOWN)) as f64 / xs.len() as f64
}

/// One row's function and its input array.
enum Case {
    F32(&'static str, Vec<f32>),
    Posit32(&'static str, Vec<Posit32>),
}

impl Case {
    /// One timed pass over the row's timings, in [`Row::ns`] order.
    fn time(&self) -> Vec<f64> {
        match self {
            Case::F32(name, xs) => {
                let out = &mut xs.clone();
                let fast = sweep(xs, out, f32_fn_by_name(name).expect(KNOWN));
                let dd = sweep(xs, out, f32_dd_fn_by_name(name).expect(KNOWN));
                let batched = ns_per_input(BATCH, || eval_slice_f32(name, xs, out).expect(KNOWN));
                let double_libm = sweep(xs, out, |x| double64::to_f32(name, x));
                let float_libm = sweep(xs, out, baseline_f32_fn_by_name(name).expect(KNOWN));
                // CR-LIBM has no sinpi/cospi; the paper compares these to double-libm.
                let crlibm = match *name {
                    "sinpi" | "cospi" => double_libm,
                    _ => sweep(xs, out, |x| crlibm::to_f32(name, x)),
                };
                vec![fast, dd, batched, double_libm, float_libm, crlibm]
            }
            Case::Posit32(name, xs) => {
                let out = &mut xs.clone();
                let fast = sweep(xs, out, posit32_fn_by_name(name).expect(KNOWN));
                let dd = sweep(xs, out, posit32_dd_fn_by_name(name).expect(KNOWN));
                let batched =
                    ns_per_input(BATCH, || eval_slice_posit32(name, xs, out).expect(KNOWN));
                let double_libm = sweep(xs, out, |x| double64::to_posit32(name, x));
                vec![fast, dd, batched, double_libm]
            }
        }
    }

    fn fallback_rate(&self) -> f64 {
        match self {
            Case::F32(n, xs) => fallback_rate(stats::f32_slot_by_name(n), xs, f32_fn_by_name(n)),
            Case::Posit32(n, xs) => {
                fallback_rate(stats::posit32_slot_by_name(n), xs, posit32_fn_by_name(n))
            }
        }
    }
}

/// Prints a table under a title: right-aligned columns as wide as
/// their widest cell, and a rule below the header row.
fn print_table(title: &str, header: &[&str], body: &[Vec<String>]) {
    let head: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let width = |i: usize| {
        body.iter()
            .chain([&head])
            .map(|r| r.get(i).map_or(0, String::len))
            .max()
    };
    let widths: Vec<usize> = (0..head.len()).filter_map(width).collect();
    let line = |r: &[String]| {
        r.iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
    };
    let rule = "-".repeat(widths.iter().map(|w| w + 3).sum());
    println!("\n{title}\n\n{}\n{rule}", line(&head).join(" | "));
    body.iter()
        .for_each(|row| println!("{}", line(row).join(" | ")));
}

/// The Figure 3 or Figure 4 table: one format's rows with their
/// speedups (`batched_vs_fast` is the §4.3 column), then the geomeans.
fn print_speedups(figure: &str, rows: &[Row], format: Format) {
    let geomeans = geomeans(rows, format);
    let mut header = vec!["fn", "fast (ns)", "dd (ns)", "batched (ns)"];
    let labels = geomeans
        .iter()
        .map(|(k, _)| k.strip_prefix("fast_").unwrap_or(k));
    header.extend(labels);
    header.push("fallback");
    let mut body: Vec<Vec<String>> = Vec::new();
    for r in rows.iter().filter(|r| r.format == format) {
        let mut cells = vec![r.name.to_string()];
        cells.extend(r.ns[..3].iter().map(|ns| format!("{ns:.1}")));
        cells.extend(r.speedups().iter().map(|(_, s)| fmt_speedup(*s)));
        cells.push(format!("{:.3}%", r.fallback_rate * 100.0));
        body.push(cells);
    }
    let mut total = ["geomean", "", "", ""].map(String::from).to_vec();
    total.extend(geomeans.iter().map(|(_, g)| fmt_speedup(*g)));
    body.push(total);
    let title = format!("{figure} and §4.3: RLIBM-32 {} functions", format.prefix());
    print_table(&title, &header, &body);
}

fn main() {
    let (mut quick, mut out_path) = (false, "BENCH_timing.json".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out requires a path"),
            other => panic!("bad arg '{other}' (usage: timing [--quick] [--out PATH])"),
        }
    }
    let (reps, max_bits) = if quick { (2, 6) } else { (5, 12) };
    assert!(stats::enabled(), "bench builds carry the tier counters");

    let cases: Vec<Case> = timing::registry()
        .map(|(format, name)| match format {
            Format::F32 => Case::F32(name, timing_inputs_f32(name, BATCH, SEED)),
            Format::Posit32 => Case::Posit32(name, timing_inputs_posit32(name, BATCH, SEED)),
        })
        .collect();
    let logs: Vec<[SweepLog; 2]> = (0..=max_bits)
        .map(|bits| [Base::Two, Base::Ten].map(|b| SweepLog::new(b, bits)))
        .collect();
    let log_xs = timing_inputs_f32("log2", BATCH, SEED);

    let mut best = vec![Vec::new(); cases.len()];
    let mut log_best = vec![[f64::INFINITY; 2]; logs.len()];
    let out = &mut log_xs.clone();
    for _ in 0..reps {
        for (b, case) in best.iter_mut().zip(&cases) {
            let t = case.time();
            b.resize(t.len(), f64::INFINITY);
            b.iter_mut().zip(t).for_each(|(b, t)| *b = b.min(t));
        }
        // One closure per base: a single closure shared by both bases
        // timed 2^1..2^12 sub-domains ~1.5x slower, a codegen artefact.
        for (b, [log2, log10]) in log_best.iter_mut().zip(&logs) {
            b[0] = b[0].min(sweep(&log_xs, out, |x| log2.eval(x)));
            b[1] = b[1].min(sweep(&log_xs, out, |x| log10.eval(x)));
        }
    }
    let rows: Vec<Row> = timing::registry()
        .zip(&cases)
        .zip(best)
        .map(|(((format, name), case), ns)| Row {
            format,
            name,
            ns,
            fallback_rate: case.fallback_rate(),
        })
        .collect();

    println!("Timing harness: arrays of {BATCH} inputs, min over {reps} interleaved passes");
    print_speedups("Figure 3", &rows, Format::F32);
    println!("\nPaper reference: 1.1x over glibc float, 1.2x over glibc double, 2x over CR-LIBM.");
    print_speedups("Figure 4", &rows, Format::Posit32);
    println!("\nPaper reference: 1.1x over glibc/Intel double, 1.4x over CR-LIBM.");

    let keys = ["bits", "ns_log2", "ns_log10", "degree", "table_bytes"];
    let (mut body, mut subdomains) = (Vec::new(), Vec::new());
    for (bits, ([log2, _], &[ns2, ns10])) in (0..).zip(logs.iter().zip(&log_best)) {
        let (degree, bytes) = (log2.degree() as f64, log2.table_bytes() as f64);
        let vals = [bits as f64, ns2, ns10, degree, bytes];
        let doc = keys
            .iter()
            .zip(vals)
            .fold(Json::obj(), |o, (k, v)| o.set(k, v));
        subdomains.push(doc);
        let speedups = [log_best[0][0] / ns2, log_best[0][1] / ns10];
        let round = |v: &f64| ((v * 100.0).round() / 100.0).to_string();
        body.push(vals.iter().chain(&speedups).map(round).collect());
    }
    let header = [&keys[..], &["log2 speedup", "log10 speedup"]].concat();
    let title = "Figure 5: log2/log10 vs piecewise sub-domains";
    print_table(title, &header, &body);
    println!("\nPaper reference: ~1.2x at 2^6 sub-domains (6 KB of tables), then flat.");

    let doc = timing::document(quick, reps, &rows, subdomains);
    let fields = [&timing::NS_FIELDS[..], &timing::RATE_FIELDS].concat();
    write_validated(&out_path, &doc, |d| check_bench_schema(d, SCHEMA, &fields)).expect("write BENCH json");
    println!("\nwrote {out_path} (schema {SCHEMA}, parsed + validated)");
}
