//! `certify_sweep`: the certifier's inner loop — the two-tier fast path
//! against the dd reference, bit for bit, over whole shards of the u32
//! domain, with oracle spot checks — for all 18 (kind, function) pairs
//! on two threads.
//!
//! Each pass draws one shard from each eighth of every pair's domain
//! (stratified, so a pass sees the NaN, infinity, subnormal and
//! saturating patterns in a fixed proportion whatever the seed).

use crate::child::Ctx;
use crate::inputs::{Fnv, SplitMix64, F32_FNS, P32_FNS};
use crate::stats::median;
use crate::{f32_bits, oracle_func, spans};
use rlibm_core::certify::{sweep_shard, OracleBudget, ShardVerdict};
use rlibm_mp::oracle::correctly_rounded;
use rlibm_posit::Posit32;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const THREADS: usize = 2;
const SHARD_BITS: u32 = 18;
const SMOKE_SHARD_BITS: u32 = 12;
/// Shards per pair per pass: one from each stratum of the domain.
const STRATA: u32 = 8;
const SMOKE_STRATA: u32 = 1;
const ORACLE_SAMPLES: u32 = 16;
const SMOKE_ORACLE_SAMPLES: u32 = 4;
/// Size of the single-thread layer sweeps (a slice of one shard).
const LAYER_BITS: u32 = 16;

type BitsFn = Box<dyn Fn(u32) -> u32 + Sync>;

/// Bit transfer functions of one (kind, function) pair.
struct Target {
    label: String,
    fast: BitsFn,
    reference: BitsFn,
    oracle: BitsFn,
}

fn targets() -> Result<Vec<Target>, String> {
    let missing = |name: &str| format!("no function {name}");
    let mut out = Vec::new();
    for name in F32_FNS {
        let (fast, dd, f) = (
            rlibm_math::f32_fn_by_name(name).ok_or_else(|| missing(name))?,
            rlibm_math::f32_dd_fn_by_name(name).ok_or_else(|| missing(name))?,
            oracle_func(name)?,
        );
        out.push(Target {
            label: format!("f32.{name}"),
            fast: Box::new(move |b| f32_bits(fast(f32::from_bits(b)))),
            reference: Box::new(move |b| f32_bits(dd(f32::from_bits(b)))),
            oracle: Box::new(move |b| f32_bits(correctly_rounded::<f32>(f, f32::from_bits(b)))),
        });
    }
    for name in P32_FNS {
        let (fast, dd, f) = (
            rlibm_math::posit32_fn_by_name(name).ok_or_else(|| missing(name))?,
            rlibm_math::posit32_dd_fn_by_name(name).ok_or_else(|| missing(name))?,
            oracle_func(name)?,
        );
        out.push(Target {
            label: format!("posit32.{name}"),
            fast: Box::new(move |b| fast(Posit32::from_bits(b)).to_bits()),
            reference: Box::new(move |b| dd(Posit32::from_bits(b)).to_bits()),
            oracle: Box::new(move |b| {
                correctly_rounded::<Posit32>(f, Posit32::from_bits(b)).to_bits()
            }),
        });
    }
    Ok(out)
}

/// Shard sizes of a run.
struct Plan {
    shard_bits: u32,
    strata: u32,
    oracle_samples: u32,
}

impl Plan {
    /// The shards pass `pass` sweeps for target `t`.
    fn shards(&self, seed: u64, pass: usize, t: usize) -> Vec<u32> {
        let per_stratum = (1u64 << (32 - self.shard_bits)) / u64::from(self.strata);
        let mut rng = SplitMix64::new(seed, &format!("certify/{pass}/{t}"));
        (0..u64::from(self.strata))
            .map(|s| (s * per_stratum + rng.below(per_stratum)) as u32)
            .collect()
    }
}

static ORACLE_NS: AtomicU64 = AtomicU64::new(0);
static ORACLE_CALLS: AtomicU64 = AtomicU64::new(0);

/// Sweeps one shard with the oracle spot check timed from inside its
/// closure.
fn sweep(
    t: &Target,
    shard: u32,
    bits: u32,
    threads: usize,
    samples: u32,
    seed: u64,
) -> Result<ShardVerdict, String> {
    let timed = |b: u32| {
        let start = Instant::now();
        let y = (t.oracle)(b);
        ORACLE_NS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        ORACLE_CALLS.fetch_add(1, Ordering::Relaxed);
        y
    };
    let budget = OracleBudget {
        oracle: &timed,
        samples,
        seed,
    };
    let oracle = (samples > 0).then_some(&budget);
    sweep_shard(shard, bits, threads, &t.fast, &t.reference, oracle).map_err(|e| e.to_string())
}

/// A fast-path result that differs from the dd reference fails the run;
/// a dd result the oracle disagrees with is a standing library defect,
/// reported with its input.
fn check(ctx: &mut Ctx, t: &Target, v: &ShardVerdict, bits: u32) {
    if !v.clean() {
        eprintln!(
            "{} shard {:#x}/{bits}: {} fast != dd (first {:08x?}), {} dd != oracle (first {:08x?})",
            t.label,
            v.shard,
            v.mismatches,
            v.first_mismatch,
            v.oracle_mismatches,
            v.first_oracle_mismatch
        );
    }
    ctx.sink.check(1u64 << bits, v.mismatches);
    ctx.sink.oracle_check(v.oracle_checked, v.oracle_mismatches);
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let plan = if ctx.smoke {
        Plan {
            shard_bits: SMOKE_SHARD_BITS,
            strata: SMOKE_STRATA,
            oracle_samples: SMOKE_ORACLE_SAMPLES,
        }
    } else {
        Plan {
            shard_bits: SHARD_BITS,
            strata: STRATA,
            oracle_samples: ORACLE_SAMPLES,
        }
    };
    let seed = ctx.seed;
    // Set-up: the bit transfer functions, then a warm-up sweep of a
    // quarter shard per pair on both threads.
    let warm_bits = plan.shard_bits - 2;
    let (targets, warmup) = ctx.setup(|| {
        let targets = targets()?;
        let warmup = targets
            .iter()
            .enumerate()
            .map(|(i, t)| {
                sweep(
                    t,
                    plan.shards(seed, 0, i)[0] << 2,
                    warm_bits,
                    THREADS,
                    0,
                    seed,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((targets, warmup))
    })?;
    for (t, v) in targets.iter().zip(&warmup) {
        check(ctx, t, v, warm_bits);
    }
    let mut fnv = Fnv::new();
    for (i, t) in targets.iter().enumerate() {
        fnv.bytes(t.label.as_bytes());
        plan.shards(seed, 0, i).into_iter().for_each(|s| fnv.u32(s));
    }
    ctx.sink
        .note("inputs_fnv", format!("{:#018x}", fnv.finish()));

    ORACLE_NS.store(0, Ordering::Relaxed);
    ORACLE_CALLS.store(0, Ordering::Relaxed);
    let mut rates = Vec::new();
    let mut layer = LayerSweeps::default();
    let mut passes = ctx.passes();
    while passes.next(&mut ctx.host) {
        let pass = passes.index();
        let _pass = spans::enter("pass");
        let start = Instant::now();
        let mut inputs = 0u64;
        for (i, t) in targets.iter().enumerate() {
            for shard in plan.shards(seed, pass, i) {
                let _span = spans::enter("certify.shard");
                let v = sweep(
                    t,
                    shard,
                    plan.shard_bits,
                    THREADS,
                    plan.oracle_samples,
                    seed,
                )?;
                inputs += 1 << plan.shard_bits;
                check(ctx, t, &v, plan.shard_bits);
            }
        }
        rates.push(inputs as f64 / start.elapsed().as_secs_f64() / 1e6);
        if ctx.layers {
            let _span = spans::enter("certify.layers");
            for (i, t) in targets.iter().enumerate() {
                let first = u64::from(plan.shards(seed, pass, i)[0]) << plan.shard_bits;
                layer.measure(t, (first >> LAYER_BITS) as u32)?;
            }
        }
    }

    // Each pass sweeps fresh shards, so the median, unlike an upper
    // quantile, does not pick out the pass with the cheapest mix.
    ctx.sink
        .e2e("rate_mops", median(&rates), "Mop/s", rates.len() as u64);
    let calls = ORACLE_CALLS.load(Ordering::Relaxed);
    let oracle_us = ORACLE_NS.load(Ordering::Relaxed) as f64 / calls.max(1) as f64 / 1e3;
    ctx.sink.layer("certify.oracle_us", oracle_us, "us", calls);
    if ctx.layers {
        layer.report(&mut ctx.sink);
    }
    Ok(())
}

/// Single-thread sweeps of the same shards, apart: fast path alone, dd
/// alone, and the full comparison on one thread against two.
#[derive(Default)]
struct LayerSweeps {
    inputs: u64,
    fast_ns: f64,
    dd_ns: f64,
    one_thread_ns: f64,
    two_thread_ns: f64,
}

impl LayerSweeps {
    fn measure(&mut self, t: &Target, shard: u32) -> Result<(), String> {
        let base = shard << LAYER_BITS;
        let n = 1u32 << LAYER_BITS;
        let time_all = |f: &BitsFn| {
            let start = Instant::now();
            for off in 0..n {
                black_box(f(black_box(base + off)));
            }
            start.elapsed().as_nanos() as f64
        };
        self.fast_ns += time_all(&t.fast);
        self.dd_ns += time_all(&t.reference);
        for (threads, total) in [
            (1, &mut self.one_thread_ns),
            (THREADS, &mut self.two_thread_ns),
        ] {
            let start = Instant::now();
            sweep_shard(shard, LAYER_BITS, threads, &t.fast, &t.reference, None)
                .map_err(|e| e.to_string())?;
            *total += start.elapsed().as_nanos() as f64;
        }
        self.inputs += u64::from(n);
        Ok(())
    }

    fn report(&self, sink: &mut crate::report::Sink) {
        let n = self.inputs.max(1) as f64;
        sink.layer("certify.fast_ns", self.fast_ns / n, "ns", self.inputs);
        sink.layer("certify.dd_ns", self.dd_ns / n, "ns", self.inputs);
        sink.layer(
            "certify.scaling_2t",
            self.one_thread_ns / self.two_thread_ns.max(1.0),
            "ratio",
            self.inputs,
        );
    }
}
