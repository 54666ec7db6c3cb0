//! `serve_mixed`: the closed-loop service, one producer feeding one
//! shard (two threads), a quarter of the traffic posit32. Every run
//! serves a fixed request count; the loop repeats runs for the budget.

use crate::child::Ctx;
use crate::inputs::Fnv;
use crate::spans;
use crate::stats::{median, quantile, LogHist};
use rlibm_serve::queue::MpmcQueue;
use rlibm_serve::workload::{count_mismatches, func_label, is_posit, scalar_eval_bits, NUM_FUNCS};
use rlibm_serve::{
    serve_closed_loop, Request, ServeConfig, ServeReport, StageAttribution, BATCH, NO_DEADLINE,
};
use std::hint::black_box;
use std::time::Instant;

const REQUESTS: u64 = 2_000_000;
const SMOKE_REQUESTS: u64 = 50_000;
/// The set-up's warm-up run.
const WARMUP_REQUESTS: u64 = 100_000;

fn config(seed: u64, requests: u64) -> ServeConfig {
    ServeConfig {
        shards: 1,
        producers: 1,
        requests,
        queue_capacity: 1024,
        seed,
        posit_permille: 250,
        // A closed loop's callers wait for room rather than give up: with
        // the default budget a host stall longer than the producer's
        // backoff sheds requests, and the run would count them as failed.
        push_budget: u32::MAX,
        ..ServeConfig::default()
    }
}

/// Requests that did not complete correctly: mismatched responses,
/// sheds, and any request the accounting lost.
fn failures(r: &ServeReport) -> u64 {
    let lost = r
        .submitted
        .saturating_sub(r.completions.len() as u64 + r.sheds.len() as u64);
    let mismatches = count_mismatches(&r.completions);
    let failed = mismatches + r.sheds.len() as u64 + lost + u64::from(!r.balanced());
    if failed > 0 {
        let mismatched = r
            .completions
            .iter()
            .filter(|c| c.y_bits != scalar_eval_bits(c.func, c.x_bits));
        for c in mismatched.take(4) {
            eprintln!(
                "serve_mixed: {}({:#010x}) served {:#010x}, scalar {:#010x}",
                func_label(c.func),
                c.x_bits,
                c.y_bits,
                scalar_eval_bits(c.func, c.x_bits)
            );
        }
        for s in r.sheds.iter().take(4) {
            eprintln!(
                "serve_mixed: {}({:#010x}) shed: {:?}",
                func_label(s.func),
                s.x_bits,
                s.reason
            );
        }
        eprintln!(
            "serve_mixed: {mismatches} mismatched, {} shed, {lost} lost of {}",
            r.sheds.len(),
            r.submitted
        );
    }
    failed
}

/// Fingerprint of what was asked: (tag, function, input bits) of every
/// completion and shed, in tag order.
fn fingerprint(r: &ServeReport) -> u64 {
    let mut reqs: Vec<(u64, u8, u32)> = r
        .completions
        .iter()
        .map(|c| (c.tag, c.func, c.x_bits))
        .chain(r.sheds.iter().map(|s| (s.tag, s.func, s.x_bits)))
        .collect();
    reqs.sort_unstable();
    let mut h = Fnv::new();
    for (tag, func, x) in reqs {
        h.u64(tag);
        h.bytes(&[func]);
        h.u32(x);
    }
    h.finish()
}

/// Uncontended push + pop on the ring the shards drain, ns per pair.
fn push_pop_ns() -> f64 {
    const OPS: u64 = 1 << 20;
    let q: MpmcQueue<Request> = MpmcQueue::with_capacity(1024);
    let req = Request::new(0, 0x3F80_0000, 0, 0, NO_DEADLINE);
    let t = Instant::now();
    for _ in 0..OPS {
        let pushed = q.push(black_box(req)).is_ok();
        black_box((pushed, q.pop()));
    }
    t.elapsed().as_nanos() as f64 / OPS as f64
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let requests = if ctx.smoke { SMOKE_REQUESTS } else { REQUESTS };
    let cfg = config(ctx.seed, requests);
    cfg.validate().map_err(|e| e.to_string())?;
    let warm = config(ctx.seed, WARMUP_REQUESTS.min(requests));
    let warm_failed = ctx.setup(|| {
        let r = serve_closed_loop(&warm).map_err(|e| e.to_string())?;
        Ok(failures(&r))
    })?;
    ctx.sink.check(warm.requests, warm_failed);

    let mut mrps = Vec::new();
    let mut drain_us = Vec::new();
    // Per run: request latency p50, p99, p999 in µs.
    let mut latency_us: [Vec<f64>; 3] = Default::default();
    let mut attribution = [StageAttribution::default(); NUM_FUNCS];
    let mut passes = ctx.passes();
    while passes.next(&mut ctx.host) {
        let r = {
            let _span = spans::enter("serve");
            serve_closed_loop(&cfg).map_err(|e| e.to_string())?
        };
        mrps.push(r.requests_per_sec() / 1e6);
        drain_us.push(r.drain_ns as f64 / 1e3);
        let mut hist = LogHist::new();
        for c in &r.completions {
            hist.record(c.latency_ns);
        }
        for (v, q) in latency_us.iter_mut().zip([0.5, 0.99, 0.999]) {
            v.push(hist.quantile(q) / 1e3);
        }
        for (sum, part) in attribution.iter_mut().zip(&r.attribution) {
            sum.merge(part);
        }
        if passes.index() == 0 {
            ctx.sink
                .note("inputs_fnv", format!("{:#018x}", fingerprint(&r)));
        }
        ctx.sink.check(r.submitted, failures(&r));
    }

    // Two threads on a shared host: other tenants only ever slow a run
    // down, and which runs they hit varies from process to process. The
    // upper decile of per-run throughput tracks the code; the median
    // tracks the neighbours.
    let n = mrps.len() as u64;
    ctx.sink.e2e("rate_mops", quantile(&mrps, 0.9), "Mop/s", n);
    ctx.sink
        .layer("serve.latency_p50_us", median(&latency_us[0]), "us", n);
    ctx.sink
        .layer("serve.latency_p99_us", median(&latency_us[1]), "us", n);
    ctx.sink
        .layer("serve.latency_p999_us", median(&latency_us[2]), "us", n);
    ctx.sink.layer("serve.drain_us", median(&drain_us), "us", n);
    if ctx.layers {
        let _span = spans::enter("queue");
        let samples: Vec<f64> = (0..5).map(|_| push_pop_ns()).collect();
        ctx.sink.layer(
            "queue.push_pop_ns",
            median(&samples),
            "ns",
            samples.len() as u64,
        );
    }
    if rlibm_obs::enabled() {
        report_attribution(&attribution, &mut ctx.sink);
    }
    Ok(())
}

/// Where sampled requests spent their time, from the traced build's
/// `ServeReport::attribution`, summed over runs.
fn report_attribution(a: &[StageAttribution], sink: &mut crate::report::Sink) {
    let mut all = StageAttribution::default();
    let (mut f32s, mut posits) = (StageAttribution::default(), StageAttribution::default());
    for (func, part) in a.iter().enumerate() {
        all.merge(part);
        let kind = if is_posit(func as u8) {
            &mut posits
        } else {
            &mut f32s
        };
        kind.merge(part);
    }
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    sink.layer(
        "serve.queue_wait_us",
        ratio(all.queue_ns, all.samples) / 1e3,
        "us",
        all.samples,
    );
    sink.layer(
        "serve.batch_residency_us",
        ratio(all.batch_ns, all.samples) / 1e3,
        "us",
        all.samples,
    );
    sink.layer(
        "serve.kernel_ns_lane.f32",
        ratio(f32s.kernel_ns, f32s.kernel_lanes),
        "ns",
        f32s.kernel_lanes,
    );
    sink.layer(
        "serve.kernel_ns_lane.posit32",
        ratio(posits.kernel_ns, posits.kernel_lanes),
        "ns",
        posits.kernel_lanes,
    );
    sink.layer(
        "serve.fallback_ns_lane",
        ratio(all.fallback_ns, all.kernel_lanes),
        "ns",
        all.kernel_lanes,
    );
    sink.layer(
        "serve.batch_fill",
        ratio(all.kernel_lanes, all.batches) / BATCH as f64,
        "ratio",
        all.batches,
    );
}
