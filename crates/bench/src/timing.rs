//! Timing methodology mirroring Section 4.1, and the document the
//! `timing` bin emits.
//!
//! The paper measures hardware cycles per call over all 2^32 inputs, six
//! repetitions, on a fixed-frequency Xeon; its §4.3 harness uses arrays
//! of 1024 inputs. Here every (format, function) row times one array of
//! [`BATCH`] pseudo-random inputs in nanoseconds per input, taking the
//! minimum over interleaved passes of the whole sweep to suppress
//! scheduler noise. Absolute numbers differ from the paper's testbed;
//! the *ratios* (speedups) are what the figures reproduce.

use std::time::Instant;

use rlibm_math::tables::{TABLE_BYTES_PACKED, TABLE_BYTES_UNPACKED};
use rlibm_math::{F32_NAMES, POSIT32_NAMES};

use crate::json::Json;

/// Schema tag of the timing document (`BENCH_timing.json`).
pub const SCHEMA: &str = "rlibm-bench/timing/v1";
/// The timings every row carries, in [`Row::ns`] order: the shipping
/// scalar call, the pure double-double kernel, `eval_slice_*` over the
/// array, and the double-libm model.
pub const NS_FIELDS: [&str; 4] = ["ns_fast", "ns_dd", "ns_batched", "ns_double_libm"];
/// The timings only f32 rows carry, after [`NS_FIELDS`]: the float-libm
/// and CR-LIBM models.
pub const F32_FIELDS: [&str; 2] = ["ns_float_libm", "ns_crlibm"];
/// The other numeric fields every row carries.
pub const RATE_FIELDS: [&str; 2] = ["fallback_rate", "ratio_batched"];
/// Inputs per row: the paper's array size (§4.3).
pub const BATCH: usize = 1024;
/// Seed of every row's input array.
pub const SEED: u64 = 42;

/// Nanoseconds per input of `pass`, one sweep over `n` inputs: the best
/// of two timed runs, each repeating the sweep for at least ~5 ms so it
/// dominates timer overhead.
pub fn ns_per_input(n: usize, mut pass: impl FnMut()) -> f64 {
    let mut run = |iters: usize| {
        let t0 = Instant::now();
        (0..iters).for_each(|_| pass());
        t0.elapsed().as_secs_f64()
    };
    // Warm up and pick an iteration count that runs >= ~5 ms.
    let mut iters = 1usize;
    while run(iters) < 0.005 && iters < 1 << 20 {
        iters *= 2;
    }
    run(iters).min(run(iters)) * 1e9 / (iters * n) as f64
}

/// Geometric mean of a slice of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let s: f64 = xs.iter().map(|x| x.ln()).sum();
    (s / xs.len() as f64).exp()
}

/// Formats a speedup row like the paper's figures ("1.31x").
pub fn fmt_speedup(r: f64) -> String {
    format!("{r:.2}x")
}

/// The number format of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    F32,
    Posit32,
}

impl Format {
    /// The row-name prefix (`f32.ln`, `posit32.ln`).
    pub fn prefix(self) -> &'static str {
        match self {
            Format::F32 => "f32",
            Format::Posit32 => "posit32",
        }
    }
}

/// Every (format, function) row in document order: the f32 then the
/// posit32 functions, each in registry order.
pub fn registry() -> impl Iterator<Item = (Format, &'static str)> {
    let f32 = F32_NAMES.into_iter().map(|n| (Format::F32, n));
    f32.chain(POSIT32_NAMES.into_iter().map(|n| (Format::Posit32, n)))
}

/// One (format, function) row of the document.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub format: Format,
    pub name: &'static str,
    /// Nanoseconds per input, each the best over the passes, for
    /// [`NS_FIELDS`] and then, on f32 rows, [`F32_FIELDS`].
    pub ns: Vec<f64>,
    /// Share of the row's inputs that the dd tier shipped.
    pub fallback_rate: f64,
}

impl Row {
    /// The row's `ns_*` fields with their values.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        let names = NS_FIELDS.into_iter().chain(F32_FIELDS);
        names.zip(self.ns.iter().copied())
    }

    /// The speedups of the fast path over each other timed reference
    /// (`fast_vs_dd`, ...) and of batching over the fast path
    /// (`batched_vs_fast`), keyed as in the document's `geomean` section.
    pub fn speedups(&self) -> Vec<(String, f64)> {
        let (fast, batched) = (self.ns[0], self.ns[2]);
        let mut s = Vec::new();
        for (k, v) in self
            .fields()
            .filter(|(k, _)| !matches!(*k, "ns_fast" | "ns_batched"))
        {
            s.push((k.replacen("ns_", "fast_vs_", 1), v / fast));
        }
        s.push(("batched_vs_fast".to_string(), fast / batched));
        s
    }

    /// The batched time over a reference timed in the same pass: the
    /// float-libm model for f32 rows, the scalar call for posit32 rows.
    /// `bench_compare --fields ratio_` gates on it, so a loaded host
    /// slows both sides instead of tripping the gate.
    pub fn ratio_batched(&self) -> f64 {
        self.ns[2] / self.ns.get(NS_FIELDS.len()).unwrap_or(&self.ns[0])
    }
}

/// The geomean over one format's rows of each [`Row::speedups`] entry.
pub fn geomeans(rows: &[Row], format: Format) -> Vec<(String, f64)> {
    let per_row: Vec<_> = rows
        .iter()
        .filter(|r| r.format == format)
        .map(Row::speedups)
        .collect();
    let column = |i: usize| geomean(&per_row.iter().map(|s| s[i].1).collect::<Vec<_>>());
    let keys = per_row[0].iter().map(|(key, _)| key.clone());
    keys.enumerate().map(|(i, key)| (key, column(i))).collect()
}

/// Assembles the timing document. The Figure 5 sweep (`bits`, `ns_log2`,
/// `ns_log10`, `degree`, `table_bytes` per entry) goes in its own
/// `subdomains` array, outside `functions`, which `bench_compare` gates.
pub fn document(quick: bool, reps: usize, rows: &[Row], subdomains: Vec<Json>) -> Json {
    let obj = |pairs: Vec<(String, f64)>| pairs.iter().fold(Json::obj(), |o, (k, v)| o.set(k, *v));
    let functions: Vec<Json> = rows
        .iter()
        .map(|r| {
            let row = Json::obj().set("name", format!("{}.{}", r.format.prefix(), r.name).as_str());
            r.fields()
                .fold(row, |o, (k, v)| o.set(k, v))
                .set("fallback_rate", r.fallback_rate)
                .set("ratio_batched", r.ratio_batched())
        })
        .collect();
    let tables = Json::obj()
        .set("bytes_packed", TABLE_BYTES_PACKED as f64)
        .set("bytes_unpacked", TABLE_BYTES_UNPACKED as f64);
    let geomean = Json::obj()
        .set("f32", obj(geomeans(rows, Format::F32)))
        .set("posit32", obj(geomeans(rows, Format::Posit32)));
    Json::obj()
        .set("schema", SCHEMA)
        .set("quick", quick)
        .set("n_inputs", BATCH as f64)
        .set("reps", reps as f64)
        .set("tables", tables)
        .set("functions", functions)
        .set("geomean", geomean)
        .set("subdomains", subdomains)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{check_bench_schema, parse};

    #[test]
    fn timing_is_positive_and_sane() {
        let inputs: Vec<f32> = (0..256).map(|i| i as f32 * 0.01 + 0.1).collect();
        let mut out = vec![0.0f32; inputs.len()];
        let ns = ns_per_input(inputs.len(), || {
            for (o, &x) in out.iter_mut().zip(std::hint::black_box(&inputs)) {
                *o = x * 1.5 + 2.0;
            }
            std::hint::black_box(&out);
        });
        assert!(ns > 0.0 && ns < 1_000.0, "{ns} ns for a mul-add?");
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    /// The document assembled from stub timings: one schema-valid row
    /// per registry name, f32 baselines on f32 rows only, and today's
    /// geomean keys per format.
    #[test]
    fn document_has_one_valid_row_per_registry_name() {
        let rows: Vec<Row> = registry()
            .map(|(format, name)| {
                let n = if format == Format::F32 { 6 } else { 4 };
                let ns = [10.0, 40.0, 4.0, 9.0, 8.0, 80.0][..n].to_vec();
                Row {
                    format,
                    name,
                    ns,
                    fallback_rate: 0.001,
                }
            })
            .collect();
        let doc = document(true, 2, &rows, vec![Json::obj().set("bits", 0.0)]);
        assert_eq!(parse(&doc.to_pretty()).unwrap(), doc, "round trip");
        check_bench_schema(&doc, SCHEMA, &[&NS_FIELDS[..], &RATE_FIELDS].concat()).unwrap();

        let funcs = doc.get("functions").and_then(Json::as_arr).unwrap();
        let name = |f: &Json| f.get("name").and_then(Json::as_str).unwrap().to_string();
        let f32_names = F32_NAMES.map(|n| format!("f32.{n}"));
        let posit_names = POSIT32_NAMES.map(|n| format!("posit32.{n}"));
        let want: Vec<String> = f32_names.into_iter().chain(posit_names).collect();
        assert_eq!(funcs.iter().map(name).collect::<Vec<_>>(), want);
        for f in funcs {
            let is_f32 = name(f).starts_with("f32.");
            assert!(
                F32_FIELDS.iter().all(|k| f.get(k).is_some() == is_f32),
                "{f:?}"
            );
            let ratio = f.get("ratio_batched").and_then(Json::as_num).unwrap();
            assert!(ratio.is_finite() && ratio > 0.0, "{f:?}");
        }

        let keys = |fmt: &str| match doc.get("geomean").and_then(|g| g.get(fmt)) {
            Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            other => panic!("geomean.{fmt}: {other:?}"),
        };
        let f32_keys = "fast_vs_dd fast_vs_double_libm fast_vs_float_libm fast_vs_crlibm";
        assert_eq!(keys("f32").join(" "), format!("{f32_keys} batched_vs_fast"));
        assert_eq!(
            keys("posit32").join(" "),
            "fast_vs_dd fast_vs_double_libm batched_vs_fast"
        );
    }
}
