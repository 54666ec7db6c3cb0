//! One workload measured in its own process: set-up, timed passes,
//! output checks, and — on trace runs — the layer probes and span file.

use crate::host::{peak_rss_mb, Sentinel};
use crate::report::Sink;
use crate::stats::median;
use crate::{call, certify, generate, serve, spans, WORKLOADS};
use std::path::Path;
use std::time::Instant;

/// Set-up repetitions behind `setup_s` (their median is reported).
const SETUP_REPS: usize = 5;

/// Passes a `--smoke` run makes.
const SMOKE_PASSES: usize = 2;

/// Per-run state every workload measures into.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Tiny fixed work instead of `seconds` of it (tests, layer probes).
    pub smoke: bool,
    /// Also measure the layer-only quantities (dd and baseline timings,
    /// codec and queue microbenchmarks); trace runs set it.
    pub layers: bool,
    pub sink: Sink,
    pub host: Sentinel,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, smoke: bool, layers: bool) -> Ctx {
        Ctx {
            seed,
            seconds,
            smoke,
            layers,
            sink: Sink::default(),
            host: Sentinel::new(),
        }
    }

    /// Runs the workload's set-up [`SETUP_REPS`] times, reports the median
    /// as `setup_s`, and keeps the last result.
    pub fn setup<S>(
        &mut self,
        mut prepare: impl FnMut() -> Result<S, String>,
    ) -> Result<S, String> {
        let reps = if self.smoke { 1 } else { SETUP_REPS };
        let _span = spans::enter("setup");
        let mut times = Vec::with_capacity(reps);
        let mut state = None;
        for _ in 0..reps {
            drop(state.take());
            let t = Instant::now();
            state = Some(prepare()?);
            times.push(t.elapsed().as_secs_f64());
        }
        self.sink.e2e("setup_s", median(&times), "s", reps as u64);
        Ok(state.expect("at least one set-up ran"))
    }

    pub fn passes(&self) -> Passes {
        let (min, max) = if self.smoke {
            (SMOKE_PASSES, SMOKE_PASSES)
        } else {
            (2, usize::MAX)
        };
        Passes {
            start: Instant::now(),
            seconds: self.seconds,
            done: 0,
            min,
            max,
        }
    }
}

/// The measurement loop's budget: passes continue until `seconds` of
/// wall time have gone by (at least two passes).
pub struct Passes {
    start: Instant,
    seconds: f64,
    done: usize,
    min: usize,
    max: usize,
}

impl Passes {
    /// True while another pass should run. Samples the host sentinel
    /// between passes.
    pub fn next(&mut self, host: &mut Sentinel) -> bool {
        host.tick();
        let go = self.done < self.min
            || (self.done < self.max && self.start.elapsed().as_secs_f64() < self.seconds);
        self.done += usize::from(go);
        go
    }

    /// Zero-based index of the pass in progress.
    pub fn index(&self) -> usize {
        self.done.saturating_sub(1)
    }
}

fn run_workload(name: &str, ctx: &mut Ctx) -> Result<(), String> {
    let _span = spans::enter(&format!("run.{name}"));
    match name {
        "call_f32" => call::run_f32(ctx, call::Api::Scalar),
        "slice_f32" => call::run_f32(ctx, call::Api::Slice),
        "call_posit32" => call::run_posit32(ctx, call::Api::Scalar),
        "slice_posit32" => call::run_posit32(ctx, call::Api::Slice),
        "serve_mixed" => serve::run(ctx),
        "certify_sweep" => certify::run(ctx),
        "generate" => generate::run(ctx),
        other => Err(format!(
            "unknown workload {other:?} (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Measures `workload` and prints its protocol lines. With `layers`, the
/// other workloads then run at smoke size to fill in the layer metrics
/// this one does not exercise. Returns the process exit code.
pub fn run(workload: &str, seed: u64, seconds: f64, smoke: bool, layers: bool) -> i32 {
    let traced = cfg!(feature = "traced");
    if traced {
        spans::enable();
    }
    let mut ctx = Ctx::new(seed, seconds, smoke, layers);
    spans::new_run();
    if let Err(e) = run_workload(workload, &mut ctx) {
        eprintln!("{workload}: {e}");
        return 2;
    }
    match peak_rss_mb() {
        Some(mb) => ctx.sink.e2e("peak_rss_mb", mb, "MiB", 1),
        None => {
            eprintln!("{workload}: cannot read VmHWM from /proc/self/status");
            return 2;
        }
    }
    ctx.host.report(&mut ctx.sink);
    if layers {
        for other in WORKLOADS.iter().filter(|w| **w != workload) {
            spans::new_run();
            let mut probe = Ctx::new(seed, 0.0, true, true);
            if let Err(e) = run_workload(other, &mut probe) {
                eprintln!("{workload}: layer probe {other}: {e}");
                return 2;
            }
            ctx.sink.fill_layers_from(&probe.sink);
        }
    }
    if traced {
        let spans = spans::take();
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{workload}.trace.json"));
        if let Err(e) = spans::write_json(&path, workload, &spans) {
            eprintln!("{workload}: writing {}: {e}", path.display());
            return 2;
        }
        println!("spans {} written to {}", spans.len(), path.display());
        let total: u64 = spans::self_times(&spans).iter().map(|(_, ns)| ns).sum();
        for (layer, ns) in spans::self_times(&spans) {
            println!(
                "self_time {layer:<10} {:>10.3} ms {:>5.1}%",
                ns as f64 / 1e6,
                100.0 * ns as f64 / total.max(1) as f64
            );
        }
    }
    print!("{}", ctx.sink.lines());
    i32::from(ctx.sink.failed > 0)
}
