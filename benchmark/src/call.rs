//! The library-call workloads: every function of one representation
//! over 4096 seeded kernel-domain inputs, one API path per workload —
//! scalar calls (`call_*`) or the batched slice entry (`slice_*`). One
//! thread. The paper's Figures 3 and 4 time the scalar path; the batched
//! path is what the serving layer runs.

use crate::child::Ctx;
use crate::inputs::{f32_inputs, posit32_inputs, Fnv, SplitMix64, F32_FNS, P32_FNS};
use crate::report::Sink;
use crate::spans;
use crate::stats::{geomean, median, quantile, Samples};
use rlibm_math::slice::UnknownFunction;
use rlibm_mp::oracle::{correctly_rounded, Func};
use rlibm_posit::Posit32;
use std::hint::black_box;
use std::time::Instant;

/// Inputs per function.
const N: usize = 4096;
const SMOKE_N: usize = 256;

/// Inputs per function whose dd reference is checked against the oracle.
const ORACLE_CHECKS: usize = 256;
const SMOKE_ORACLE_CHECKS: usize = 16;

/// On trace runs, the dd kernels and the posit codec are timed every
/// this many passes (the dd tier ships ~0.05% of f32 calls, so it gets
/// no more of the run than that warrants).
const LAYER_EVERY: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Api {
    Scalar,
    Slice,
}

/// A value one of the families computes on, compared by bit pattern.
trait Lane: Copy + Default {
    fn bits(self) -> u32;
}

impl Lane for f32 {
    fn bits(self) -> u32 {
        crate::f32_bits(self)
    }
}

impl Lane for Posit32 {
    fn bits(self) -> u32 {
        self.to_bits()
    }
}

/// Resolves a function of the family by its paper-table name.
type ByName<T> = fn(&str) -> Option<fn(T) -> T>;
type SliceFn<T> = fn(&str, &[T], &mut [T]) -> Result<(), UnknownFunction>;
type CodecFn<T> = fn(&[T], &[u32]) -> (f64, f64);

/// Everything that differs between the f32 and posit32 libraries.
struct Family<T> {
    kind: &'static str,
    fns: &'static [&'static str],
    inputs: fn(&str, usize, &mut SplitMix64) -> Vec<T>,
    scalar: ByName<T>,
    dd: ByName<T>,
    slice: SliceFn<T>,
    oracle: fn(Func, T) -> T,
    tier_slot: fn(&str) -> Option<usize>,
    /// The double-libm model Figure 3 compares against.
    baseline: Option<fn(&str, T) -> T>,
    /// Per-op (decode, encode) time of the representation's codec.
    codec: Option<CodecFn<T>>,
}

const F32: Family<f32> = Family {
    kind: "f32",
    fns: &F32_FNS,
    inputs: f32_inputs,
    scalar: rlibm_math::f32_fn_by_name,
    dd: rlibm_math::f32_dd_fn_by_name,
    slice: rlibm_math::eval_slice_f32,
    oracle: correctly_rounded::<f32>,
    tier_slot: rlibm_math::stats::f32_slot_by_name,
    baseline: Some(rlibm_math::baselines::double64::to_f32),
    codec: None,
};

const POSIT32: Family<Posit32> = Family {
    kind: "posit32",
    fns: &P32_FNS,
    inputs: posit32_inputs,
    scalar: rlibm_math::posit32_fn_by_name,
    dd: rlibm_math::posit32_dd_fn_by_name,
    slice: rlibm_math::eval_slice_posit32,
    oracle: correctly_rounded::<Posit32>,
    tier_slot: rlibm_math::stats::posit32_slot_by_name,
    baseline: None,
    codec: Some(posit_codec_ns),
};

/// Decode is `Posit32 -> f64` over the inputs; encode is the final
/// `f64 -> Posit32` rounding over the results.
fn posit_codec_ns(xs: &[Posit32], want: &[u32]) -> (f64, f64) {
    let t = Instant::now();
    for &x in xs {
        black_box(black_box(x).to_f64());
    }
    let decode = t.elapsed().as_nanos() as f64 / xs.len() as f64;
    let ys: Vec<f64> = want
        .iter()
        .map(|&b| Posit32::from_bits(b).to_f64())
        .collect();
    let t = Instant::now();
    for &y in &ys {
        black_box(Posit32::from_f64(black_box(y)));
    }
    (decode, t.elapsed().as_nanos() as f64 / ys.len() as f64)
}

struct Case<T> {
    name: &'static str,
    /// `<layer>.<fn>`, the span name of this function's sweep.
    span: String,
    scalar: fn(T) -> T,
    dd: fn(T) -> T,
    xs: Vec<T>,
    /// dd-kernel result bits for every input: the reference.
    want: Vec<u32>,
    out: Vec<T>,
}

impl<T: Lane> Case<T> {
    fn sweep(&mut self, fam: &Family<T>, api: Api) -> Result<f64, String> {
        let t = Instant::now();
        match api {
            Api::Scalar => {
                let f = self.scalar;
                for (o, &x) in self.out.iter_mut().zip(&self.xs) {
                    *o = f(black_box(x));
                }
            }
            Api::Slice => {
                (fam.slice)(self.name, &self.xs, &mut self.out).map_err(|e| e.to_string())?
            }
        }
        Ok(t.elapsed().as_nanos() as f64)
    }

    fn mismatches(&self) -> u64 {
        self.out
            .iter()
            .zip(&self.want)
            .filter(|(o, w)| o.bits() != **w)
            .count() as u64
    }
}

struct Prepared<T> {
    cases: Vec<Case<T>>,
    oracle_checked: u64,
    /// `(function, input, dd result, oracle result)` bits where the dd
    /// reference is not the correctly rounded result.
    misrounded: Vec<(&'static str, u32, u32, u32)>,
}

/// Set-up: seeded inputs, dd reference outputs, the oracle check of the
/// reference, and one untimed warm-up sweep.
fn prepare<T: Lane>(
    fam: &Family<T>,
    api: Api,
    layer: &str,
    seed: u64,
    smoke: bool,
) -> Result<Prepared<T>, String> {
    let (n, checks) = if smoke {
        (SMOKE_N, SMOKE_ORACLE_CHECKS)
    } else {
        (N, ORACLE_CHECKS)
    };
    let mut p = Prepared {
        cases: Vec::with_capacity(fam.fns.len()),
        oracle_checked: 0,
        misrounded: Vec::new(),
    };
    for &name in fam.fns {
        let unknown = || format!("{} has no {name}", fam.kind);
        let scalar = (fam.scalar)(name).ok_or_else(unknown)?;
        let dd = (fam.dd)(name).ok_or_else(unknown)?;
        let f = crate::oracle_func(name)?;
        let xs = (fam.inputs)(
            name,
            n,
            &mut SplitMix64::new(seed, &format!("{}/{name}", fam.kind)),
        );
        let want: Vec<u32> = xs.iter().map(|&x| dd(x).bits()).collect();
        for (&x, &w) in xs.iter().zip(&want).take(checks) {
            p.oracle_checked += 1;
            let o = (fam.oracle)(f, x).bits();
            if o != w {
                p.misrounded.push((name, x.bits(), w, o));
            }
        }
        let mut case = Case {
            name,
            span: format!("{layer}.{name}"),
            scalar,
            dd,
            xs,
            want,
            out: vec![T::default(); n],
        };
        case.sweep(fam, api)?;
        p.cases.push(case);
    }
    Ok(p)
}

pub fn run_f32(ctx: &mut Ctx, api: Api) -> Result<(), String> {
    run(ctx, &F32, api)
}

pub fn run_posit32(ctx: &mut Ctx, api: Api) -> Result<(), String> {
    run(ctx, &POSIT32, api)
}

fn run<T: Lane>(ctx: &mut Ctx, fam: &Family<T>, api: Api) -> Result<(), String> {
    let (layer, unit, pass_metric) = match (fam.kind, api) {
        ("f32", Api::Scalar) => ("float", "ns", "float.pass_ns_p99"),
        ("f32", Api::Slice) => ("slice", "ns_lane", "slice.pass_ns_p99"),
        (_, Api::Scalar) => ("posit", "ns", "posit.pass_ns_p99"),
        (_, Api::Slice) => ("posit", "ns_lane", "posit.slice_pass_ns_p99"),
    };
    let (seed, smoke) = (ctx.seed, ctx.smoke);
    let Prepared {
        mut cases,
        oracle_checked,
        misrounded,
    } = ctx.setup(|| prepare(fam, api, layer, seed, smoke))?;
    for (name, x, dd, oracle) in &misrounded {
        eprintln!(
            "{} {name}({x:#010x}): dd reference {dd:#010x}, oracle {oracle:#010x}",
            fam.kind
        );
    }
    ctx.sink
        .oracle_check(oracle_checked, misrounded.len() as u64);
    let n = cases[0].xs.len();
    let mut fnv = Fnv::new();
    for c in &cases {
        fnv.bytes(c.name.as_bytes());
        c.xs.iter().for_each(|x| fnv.u32(x.bits()));
    }
    ctx.sink
        .note("inputs_fnv", format!("{:#018x}", fnv.finish()));

    rlibm_math::stats::reset();
    // Per function, ns per operation of each timed sweep.
    let mut op_ns: Vec<Samples> = cases.iter().map(|_| Samples::new()).collect();
    let mut pass_ns = Samples::new();
    let mut extra = LayerTimes::new(cases.len());
    let mut passes = ctx.passes();
    while passes.next(&mut ctx.host) {
        let _pass = spans::enter("pass");
        let mut total = 0.0;
        for (c, samples) in cases.iter_mut().zip(&mut op_ns) {
            let _sweep = spans::enter(&c.span);
            let ns = c.sweep(fam, api)?;
            samples.push(ns / n as f64);
            total += ns;
        }
        pass_ns.push(total);
        let failed = cases.iter().map(Case::mismatches).sum();
        ctx.sink.check((cases.len() * n) as u64, failed);
        if ctx.layers && api == Api::Scalar {
            extra.measure(fam, &cases, passes.index());
        }
    }
    let tiers = tier_counts(fam);

    // The other API path, once and untimed: scalar == batched == dd.
    let other = if api == Api::Scalar {
        Api::Slice
    } else {
        Api::Scalar
    };
    for c in cases.iter_mut() {
        c.sweep(fam, other)?;
        let failed = c.mismatches();
        ctx.sink.check(n as u64, failed);
    }

    let medians: Vec<f64> = op_ns.iter().map(|s| median(s.values())).collect();
    let kept = op_ns.iter().map(|s| s.values().len() as u64).sum();
    let rates: Vec<f64> = medians.iter().map(|ns| 1e3 / ns).collect();
    ctx.sink.e2e("rate_mops", geomean(&rates), "Mop/s", kept);
    for ((c, &ns), s) in cases.iter().zip(&medians).zip(&op_ns) {
        ctx.sink.layer(
            format!("{layer}.{}.{unit}", c.name),
            ns,
            "ns",
            s.values().len() as u64,
        );
    }
    ctx.sink.layer(
        pass_metric,
        quantile(pass_ns.values(), 0.99),
        "ns",
        pass_ns.values().len() as u64,
    );
    if let Some(counts) = tiers {
        let all: u64 = counts.iter().sum();
        for (tier, count) in ["prefix", "full", "dd"].into_iter().zip(counts) {
            let frac = count as f64 / all.max(1) as f64;
            ctx.sink.layer(
                format!("tiers.{}.{tier}_frac", fam.kind),
                frac,
                "ratio",
                all,
            );
        }
    }
    if ctx.layers && api == Api::Scalar {
        extra.report(fam, &cases, geomean(&medians), &mut ctx.sink);
    }
    Ok(())
}

/// Calls that shipped from each tier `[prefix, full, dd]` since the last
/// reset; `None` in a build without telemetry.
fn tier_counts<T>(fam: &Family<T>) -> Option<[u64; 3]> {
    if !rlibm_obs::enabled() {
        return None;
    }
    let mut sum = [0u64; 3];
    for slot in fam.fns.iter().filter_map(|name| (fam.tier_slot)(name)) {
        sum[0] += rlibm_math::stats::tier_prefix(slot);
        sum[1] += rlibm_math::stats::tier_full(slot);
        sum[2] += rlibm_math::stats::tier_dd(slot);
    }
    Some(sum)
}

/// Layer-only timings of a scalar workload's trace run: the dd kernels,
/// the double-libm baseline and the posit codec.
struct LayerTimes {
    dd_ns: Vec<Samples>,
    base_ns: Vec<Samples>,
    decode_ns: Samples,
    encode_ns: Samples,
}

fn ns_per_op(t: Instant, ops: usize) -> f64 {
    t.elapsed().as_nanos() as f64 / ops as f64
}

impl LayerTimes {
    fn new(fns: usize) -> LayerTimes {
        LayerTimes {
            dd_ns: (0..fns).map(|_| Samples::new()).collect(),
            base_ns: (0..fns).map(|_| Samples::new()).collect(),
            decode_ns: Samples::new(),
            encode_ns: Samples::new(),
        }
    }

    fn measure<T: Lane>(&mut self, fam: &Family<T>, cases: &[Case<T>], pass: usize) {
        if let Some(base) = fam.baseline {
            let _span = spans::enter("baselines");
            for (i, c) in cases.iter().enumerate() {
                let t = Instant::now();
                for &x in &c.xs {
                    black_box(base(c.name, black_box(x)));
                }
                self.base_ns[i].push(ns_per_op(t, c.xs.len()));
            }
        }
        if !pass.is_multiple_of(LAYER_EVERY) {
            return;
        }
        let _span = spans::enter("dd");
        for (i, c) in cases.iter().enumerate() {
            let t = Instant::now();
            for &x in &c.xs {
                black_box((c.dd)(black_box(x)));
            }
            self.dd_ns[i].push(ns_per_op(t, c.xs.len()));
        }
        if let Some(codec) = fam.codec {
            let _span = spans::enter("posit_format");
            let xs: Vec<T> = cases.iter().flat_map(|c| c.xs.iter().copied()).collect();
            let want: Vec<u32> = cases.iter().flat_map(|c| c.want.iter().copied()).collect();
            let (decode, encode) = codec(&xs, &want);
            self.decode_ns.push(decode);
            self.encode_ns.push(encode);
        }
    }

    fn report<T>(&self, fam: &Family<T>, cases: &[Case<T>], call_ns: f64, sink: &mut Sink) {
        let dd_prefix = if fam.kind == "f32" {
            String::new()
        } else {
            format!("{}_", fam.kind)
        };
        for (c, v) in cases.iter().zip(&self.dd_ns) {
            sink.layer(
                format!("dd.{dd_prefix}{}.ns", c.name),
                median(v.values()),
                "ns",
                v.values().len() as u64,
            );
        }
        if fam.baseline.is_some() {
            let base: Vec<f64> = self.base_ns.iter().map(|v| median(v.values())).collect();
            let n = self.base_ns[0].values().len() as u64;
            sink.layer("baselines.double_libm.ns", geomean(&base), "ns", n);
            sink.layer(
                "baselines.f32_vs_double_libm",
                geomean(&base) / call_ns,
                "ratio",
                n,
            );
            sink.layer(
                "tables.bytes_packed",
                rlibm_math::tables::TABLE_BYTES_PACKED as f64,
                "bytes",
                1,
            );
        }
        if fam.codec.is_some() {
            let (decode, encode) = (
                median(self.decode_ns.values()),
                median(self.encode_ns.values()),
            );
            let n = self.decode_ns.values().len() as u64;
            sink.layer("posit_format.decode_ns", decode, "ns", n);
            sink.layer("posit_format.encode_ns", encode, "ns", n);
            sink.layer(
                "posit_format.codec_frac",
                (decode + encode) / call_ns,
                "ratio",
                n,
            );
        }
    }
}
