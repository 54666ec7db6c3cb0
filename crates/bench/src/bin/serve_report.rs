//! The serving stack's one report: runs a table of closed-loop
//! `rlibm-serve` scenarios and emits `BENCH_serve.json`
//! (`rlibm-bench/serve/v2`, re-parsed and validated before exit).
//!
//! Every scenario is a [`ServeConfig`] plus the obligations its run must
//! show. The table:
//!
//! * `healthy` — the default service under a saturating closed loop:
//!   throughput and latency quantiles, per-function latencies and stage
//!   attribution, stage quantiles and the slowest completions;
//! * `rescalar_harvest` — f32-only traffic with trace sampling off, so
//!   the trace rings end holding rescalar-fallback exemplars;
//! * `deadline` — a 1 ns deadline sheds at dequeue;
//! * `drain` — admission closes mid-run;
//! * with the `fault` feature, the chaos scenarios: a panic storm the
//!   supervisors fully recover from, injected stalls against deadlines,
//!   ring corruption, backpressure, a drain under stalls, kernel faults
//!   composed with panics, and a storm that exhausts the restart budget
//!   (the source of `Poisoned` sheds and panic flight dumps).
//!
//! Every scenario asserts the service's contract — each submitted
//! request ends as exactly one bit-identical completion or one
//! explicitly-reasoned shed, no tag ends twice, and every caught panic
//! is an injected one — and then its own obligations, so a chaos plan
//! that never fired certifies nothing. A full fault run must land at
//! least [`FULL_INJECTION_FLOOR`] injections; `--quick` shrinks every
//! scenario for the CI smoke and drops the floor.
//!
//! `--check PATH` re-validates a committed report without re-running
//! (`rlibm_bench::serve::check_serve_report`, the validator the run
//! itself uses).
//!
//! Usage: `cargo run -p rlibm-bench --release [--features fault,simd] \
//!             --bin serve_report -- [--quick] [--out PATH]`
//!        `... --bin serve_report -- --check BENCH_serve.json`

use rlibm_bench::json::{parse, write_validated, Json};
use rlibm_bench::serve::{
    check_serve_report, FULL_INJECTION_FLOOR, HEALTHY_PREFIX, SCHEMA, SHED_REASONS,
};
use rlibm_obs::quantile::{from_log2_buckets, percentile};
use rlibm_obs::trace as obs_trace;
use rlibm_serve::{
    serve_closed_loop, workload, ChaosConfig, FlightTrigger, ServeConfig, ServeReport, ShedReason,
};

/// Exemplars kept per section (counts are still reported exactly).
const EXEMPLAR_CAP: usize = 8;

/// An obligation a scenario's run must show, beyond the contract every
/// scenario asserts.
#[derive(Clone, Copy)]
enum Must {
    /// Complete every request: no sheds, no failed shard.
    ServeAll,
    /// Inject at least one shard panic.
    Panic,
    /// Inject at least one flush delay.
    Delay,
    /// Inject corruption and shed every corrupted request, exactly.
    Corrupt,
    /// Inject at least one kernel-level fast-path fault.
    KernelFault,
    /// Shed at least one request for this reason.
    Shed(ShedReason),
    /// Close admission mid-run: admission sheds, some completions, and a
    /// quiesce record per shard.
    Drain,
    /// Restart after every panic; no shard gives up.
    Recover,
    /// Exhaust a restart budget: a shard gives up and its backlog is
    /// shed as `Poisoned`.
    Exhaust,
}

/// What a scenario's report feeds beyond its own row.
#[derive(Clone, Copy)]
enum Feeds {
    Row,
    /// Per-function rows, stage quantiles and the slowest completions.
    Attribution,
    /// Rescalar exemplars from the trace rings.
    Rescalar,
}

struct Scenario {
    name: &'static str,
    cfg: ServeConfig,
    must: &'static [Must],
    feeds: Feeds,
}

/// A scenario that feeds only its own row.
fn row(name: &'static str, cfg: ServeConfig, must: &'static [Must]) -> Scenario {
    Scenario { name, cfg, must, feeds: Feeds::Row }
}

/// The scenario table; rows with a chaos plan exist only in `fault`
/// builds.
fn scenarios(quick: bool) -> Vec<Scenario> {
    let n = |full: u64, q: u64| if quick { q } else { full };
    let base = ServeConfig {
        shards: 2,
        producers: 2,
        queue_capacity: 512,
        seed: 0xC4A0_5EED,
        restart_backoff_ns: 1_000,
        ..ServeConfig::default()
    };
    let all = vec![
        Scenario {
            name: "healthy",
            cfg: ServeConfig { requests: n(2_000_000, 60_000), ..ServeConfig::default() },
            must: &[Must::ServeAll],
            feeds: Feeds::Attribution,
        },
        // Sampling effectively off and f32-only traffic: the trace rings
        // end the run holding little but rescalar events.
        Scenario {
            name: "rescalar_harvest",
            cfg: ServeConfig {
                requests: n(400_000, 80_000),
                posit_permille: 0,
                trace_sample_shift: 32,
                ..base.clone()
            },
            must: &[Must::ServeAll],
            feeds: Feeds::Rescalar,
        },
        row(
            "deadline",
            ServeConfig { requests: n(60_000, 15_000), deadline_ns: 1, ..base.clone() },
            &[Must::Shed(ShedReason::Deadline)],
        ),
        row(
            "drain",
            ServeConfig {
                requests: n(2_000_000, 400_000),
                drain_after_ns: n(5_000_000, 1_000_000),
                ..base.clone()
            },
            &[Must::Drain],
        ),
        // A few percent of flushes unwind the worker; each restart
        // resumes the buffered work without losing or duplicating it.
        row(
            "panic_storm",
            ServeConfig {
                requests: n(300_000, 30_000),
                max_restarts: u32::MAX,
                chaos: Some(ChaosConfig {
                    seed: 0x9A41C,
                    panic_per_million: 30_000,
                    ..ChaosConfig::default()
                }),
                ..base.clone()
            },
            &[Must::Panic, Must::Recover],
        ),
        // 1 ms flush stalls against a 0.5 ms deadline: work queued behind
        // a stall is shed as Deadline, not served late.
        row(
            "deadline_pressure",
            ServeConfig {
                requests: n(200_000, 20_000),
                deadline_ns: 500_000,
                chaos: Some(ChaosConfig {
                    seed: 0x00DE_AD11,
                    delay_per_million: 50_000,
                    delay_ns: 1_000_000,
                    ..ChaosConfig::default()
                }),
                ..base.clone()
            },
            &[Must::Delay, Must::Shed(ShedReason::Deadline)],
        ),
        // One bit of x_bits flipped in 8% of dequeued slots; the
        // per-request checksum must catch every one.
        row(
            "corruption",
            ServeConfig {
                requests: n(1_500_000, 40_000),
                chaos: Some(ChaosConfig {
                    seed: 0xBAD_B174,
                    corrupt_per_million: 80_000,
                    ..ChaosConfig::default()
                }),
                ..base.clone()
            },
            &[Must::Corrupt],
        ),
        // A tiny ring, a spin-only push budget and long stalls: overload
        // becomes Backpressure sheds instead of an unbounded spin.
        row(
            "backpressure",
            ServeConfig {
                requests: n(150_000, 15_000),
                queue_capacity: 64,
                push_budget: 16,
                chaos: Some(ChaosConfig {
                    seed: 0xB4C2,
                    delay_per_million: 200_000,
                    delay_ns: 2_000_000,
                    ..ChaosConfig::default()
                }),
                ..base.clone()
            },
            &[Must::Delay, Must::Shed(ShedReason::Backpressure)],
        ),
        row(
            "drain_under_load",
            ServeConfig {
                requests: n(2_000_000, 150_000),
                drain_after_ns: n(30_000_000, 3_000_000),
                chaos: Some(ChaosConfig {
                    seed: 0x000D_2A14,
                    delay_per_million: 20_000,
                    delay_ns: 200_000,
                    ..ChaosConfig::default()
                }),
                ..base.clone()
            },
            &[Must::Delay, Must::Drain],
        ),
        // Fast-path corruption armed on every worker thread, composed
        // with shard panics: both failure layers at once.
        row(
            "kernel_faults",
            ServeConfig {
                requests: n(400_000, 40_000),
                posit_permille: 700,
                max_restarts: u32::MAX,
                chaos: Some(ChaosConfig {
                    seed: 0x0006_EB5E,
                    panic_per_million: 10_000,
                    kernel_fault_seed: 0xFA57_F417,
                    ..ChaosConfig::default()
                }),
                ..base.clone()
            },
            &[Must::Panic, Must::KernelFault, Must::Recover],
        ),
        // Half of all flushes panic against a restart budget of 1.
        row(
            "restart_exhausted",
            ServeConfig {
                requests: n(100_000, 20_000),
                max_restarts: 1,
                chaos: Some(ChaosConfig {
                    seed: 0xDEAD_BEA7,
                    panic_per_million: 500_000,
                    ..ChaosConfig::default()
                }),
                ..base.clone()
            },
            &[Must::Panic, Must::Exhaust],
        ),
    ];
    let fault = rlibm_serve::chaos::injection_compiled_in();
    all.into_iter().filter(|s| fault || s.cfg.chaos.is_none()).collect()
}

/// Injections at the kernel-level fault sites so far in this process.
#[cfg(feature = "fault")]
fn kernel_injected_total() -> u64 {
    rlibm_core::fault::site_injections().iter().map(|(_, _, n)| n).sum()
}

#[cfg(not(feature = "fault"))]
fn kernel_injected_total() -> u64 {
    0
}

/// Lanes the batched driver has resolved through the scalar entry, both
/// formats (0 without telemetry).
fn rescalar_lanes_total() -> u64 {
    let snap = rlibm_obs::snapshot();
    ["runtime.slice.f32.rescalar_lanes", "runtime.slice.posit32.rescalar_lanes"]
        .iter()
        .map(|name| snap.counter(name).unwrap_or(0))
        .sum()
}

/// Everything the document gathers across scenarios beside their rows.
#[derive(Default)]
struct Gathered {
    rows: Vec<Json>,
    /// Exemplars per shed reason, capped.
    sheds: Vec<Vec<Json>>,
    /// Distinct rescalar exemplars from the trace rings, capped.
    rescalar: Vec<Json>,
    /// Rescalar events left in the trace rings after the harvest.
    rescalar_seen: u64,
    /// Lanes the batched driver resolved through the scalar entry during
    /// the harvest (the `runtime.slice.*.rescalar_lanes` delta).
    rescalar_lanes: u64,
    /// The slowest healthy completions.
    slowest: Vec<Json>,
    /// The healthy scenario's `healthy.<label>` rows.
    workload_rows: Vec<Json>,
    sampled: u64,
    stage_quantiles: Option<Json>,
    flight_panic: u64,
    flight_corruption: u64,
    flight_events: u64,
    submitted: u64,
    injected: u64,
}

/// Sets `ns_p50`/`ns_p99`/`ns_p999` from latencies, sorting them.
fn with_quantiles(row: Json, lat: &mut [u64]) -> Json {
    lat.sort_unstable();
    let sorted = &*lat;
    row.set("ns_p50", percentile(sorted, 0.50) as f64)
        .set("ns_p99", percentile(sorted, 0.99) as f64)
        .set("ns_p999", percentile(sorted, 0.999) as f64)
}

/// Runs one scenario, asserts the contract and its obligations, and
/// folds its report into `g`.
fn run_scenario(s: &Scenario, g: &mut Gathered) {
    let name = s.name;
    let kernel0 = kernel_injected_total();
    let rescalar0 = rescalar_lanes_total();
    let report = serve_closed_loop(&s.cfg)
        .unwrap_or_else(|e| panic!("scenario {name}: accounting lost: {e}"));
    let kernel_injections = kernel_injected_total() - kernel0;
    let rescalar_lanes = rescalar_lanes_total() - rescalar0;

    // The contract, on every scenario whatever was injected.
    let completions = report.completions.len() as u64;
    let sheds = report.sheds.len() as u64;
    assert!(
        report.balanced(),
        "scenario {name}: {completions} completions + {sheds} sheds != {} submitted",
        report.submitted
    );
    let mismatches = workload::count_mismatches(&report.completions);
    assert_eq!(mismatches, 0, "scenario {name}: mis-rounded outputs escaped");
    let mut tags: Vec<u64> = report
        .completions
        .iter()
        .map(|c| c.tag)
        .chain(report.sheds.iter().map(|s| s.tag))
        .collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len() as u64, completions + sheds, "scenario {name}: a request ended twice");
    assert_eq!(
        report.panics, report.chaos.panics,
        "scenario {name}: caught panics != injected panics"
    );
    for must in s.must {
        check_obligation(name, *must, &report, kernel_injections);
    }

    match s.feeds {
        Feeds::Row => {}
        Feeds::Attribution => gather_attribution(&report, g),
        Feeds::Rescalar => {
            g.rescalar_lanes += rescalar_lanes;
            // Snapshot now: the next scenario's threads reclaim the rings.
            for t in obs_trace::snapshot_rings() {
                for e in t.events.iter().filter(|e| e.kind == obs_trace::TraceKind::Rescalar) {
                    g.rescalar_seen += 1;
                    let ex = exemplar(e.aux, e.payload);
                    if g.rescalar.len() < EXEMPLAR_CAP && !g.rescalar.contains(&ex) {
                        g.rescalar.push(ex);
                    }
                }
            }
        }
    }

    for shed in &report.sheds {
        let section = &mut g.sheds[reason_index(shed.reason)];
        if section.len() < EXEMPLAR_CAP {
            section.push(exemplar(shed.func, shed.x_bits).set("tag", shed.tag as f64));
        }
    }
    for dump in &report.flight {
        match dump.trigger {
            FlightTrigger::Panic => g.flight_panic += 1,
            FlightTrigger::Corruption => g.flight_corruption += 1,
        }
        g.flight_events += dump.events.len() as u64;
    }

    let mut lat: Vec<u64> = report.completions.iter().map(|c| c.latency_ns).collect();
    let mut row = with_quantiles(Json::obj().set("name", name), &mut lat)
        .set("requests", report.submitted as f64)
        .set("completions", completions as f64)
        .set("sheds", sheds as f64);
    for &(reason, section) in SHED_REASONS {
        row = row.set(&format!("shed_{section}"), report.shed_count(reason) as f64);
    }
    let row = row
        .set("panics", report.panics as f64)
        .set("restarts", report.restarts as f64)
        .set("failed_shards", report.failed_shards.len() as f64)
        .set("delays", report.chaos.delays as f64)
        .set("corruptions", report.chaos.corruptions as f64)
        .set("kernel_injections", kernel_injections as f64)
        .set("mismatches", mismatches as f64)
        .set("unaccounted", report.submitted.saturating_sub(completions + sheds) as f64)
        .set("dumps", report.flight.len() as f64)
        .set("shards", report.shards as f64)
        .set("producers", report.producers as f64)
        .set("elapsed_ms", report.elapsed_ns as f64 / 1e6)
        .set("requests_per_sec", report.requests_per_sec())
        .set("drain_ns", report.drain_ns as f64);
    let injected = report.chaos.total() + kernel_injections;
    println!(
        "{name:>18} | {:>9} | {completions:>9} | {sheds:>7} | {:>6}/{:<6} | {injected:>8} | \
         {:>5} | {:>9} | {:>10.0}",
        report.submitted,
        report.panics,
        report.restarts,
        report.flight.len(),
        percentile(&lat, 0.99),
        report.requests_per_sec(),
    );
    g.rows.push(row);
    g.submitted += report.submitted;
    g.injected += injected;
}

fn check_obligation(name: &str, must: Must, r: &ServeReport, kernel_injections: u64) {
    match must {
        Must::ServeAll => {
            assert_eq!(
                r.completions.len() as u64,
                r.submitted,
                "scenario {name}: a healthy run completes every request"
            );
            assert!(r.sheds.is_empty(), "scenario {name}: a healthy run sheds nothing");
            assert!(r.failed_shards.is_empty(), "scenario {name}: a shard gave up");
        }
        Must::Panic => assert!(r.chaos.panics > 0, "scenario {name}: no panics injected"),
        Must::Delay => assert!(r.chaos.delays > 0, "scenario {name}: no delays injected"),
        Must::Corrupt => {
            assert!(r.chaos.corruptions > 0, "scenario {name}: no corruption injected");
            assert_eq!(
                r.shed_count(ShedReason::Corrupted),
                r.chaos.corruptions,
                "scenario {name}: every corruption must be detected and shed, exactly"
            );
        }
        Must::KernelFault => {
            assert!(kernel_injections > 0, "scenario {name}: no kernel faults injected");
        }
        Must::Shed(reason) => {
            assert!(r.shed_count(reason) > 0, "scenario {name}: no {reason:?} sheds");
        }
        Must::Drain => {
            assert!(
                r.shed_count(ShedReason::AdmissionClosed) > 0,
                "scenario {name}: the drain produced no admission sheds"
            );
            assert!(!r.completions.is_empty(), "scenario {name}: drain served nothing");
            assert_eq!(r.quiesce.len(), r.shards, "scenario {name}: quiesce rows");
        }
        Must::Recover => {
            assert!(
                r.failed_shards.is_empty(),
                "scenario {name}: a shard gave up despite an unlimited restart budget"
            );
            assert_eq!(
                r.restarts, r.panics,
                "scenario {name}: every caught panic must restart its shard"
            );
        }
        Must::Exhaust => {
            assert!(!r.failed_shards.is_empty(), "scenario {name}: no shard exhausted its budget");
            assert!(
                r.shed_count(ShedReason::Poisoned) > 0,
                "scenario {name}: a failed shard shed no Poisoned backlog"
            );
        }
    }
}

fn reason_index(reason: ShedReason) -> usize {
    SHED_REASONS
        .iter()
        .position(|&(r, _)| r == reason)
        .unwrap_or_else(|| unreachable!("every reason is listed"))
}

fn stage_entry(hist: Option<&rlibm_obs::HistogramSnapshot>) -> Json {
    let (count, sum, buckets) =
        hist.map(|h| (h.count, h.sum, h.buckets.as_slice())).unwrap_or((0, 0, &[]));
    let mean = if count > 0 { sum as f64 / count as f64 } else { 0.0 };
    Json::obj()
        .set("count", count as f64)
        .set("sum", sum as f64)
        .set("mean", mean)
        .set("p50", from_log2_buckets(buckets, 0.50) as f64)
        .set("p99", from_log2_buckets(buckets, 0.99) as f64)
        .set("p999", from_log2_buckets(buckets, 0.999) as f64)
}

/// The healthy scenario's per-function rows, stage quantiles (the
/// `serve.trace.*` histograms, reset before it ran) and slowest
/// completions.
fn gather_attribution(report: &ServeReport, g: &mut Gathered) {
    let snap = rlibm_obs::snapshot();
    let hist = |name: &str| snap.histograms.iter().find(|h| h.name == name);
    g.stage_quantiles = Some(
        Json::obj()
            .set("queue_wait_ns", stage_entry(hist("serve.trace.queue_wait_ns")))
            .set("batch_wait_ns", stage_entry(hist("serve.trace.batch_wait_ns")))
            .set("kernel_ns", stage_entry(hist("serve.trace.kernel_ns")))
            .set("fallback_ns", stage_entry(hist("serve.trace.fallback_ns"))),
    );

    let mean = |sum: u64, n: u64| if n > 0 { sum as f64 / n as f64 } else { 0.0 };
    let mut by_func = vec![Vec::new(); workload::NUM_FUNCS];
    for c in &report.completions {
        by_func[usize::from(c.func) % workload::NUM_FUNCS].push(c.latency_ns);
    }
    for ((f, a), lat) in report.attribution.iter().enumerate().zip(&mut by_func) {
        let label = workload::func_label(f as u8);
        let row = Json::obj()
            .set("name", format!("{HEALTHY_PREFIX}{label}").as_str())
            .set("requests", lat.len() as f64);
        g.workload_rows.push(
            with_quantiles(row, lat)
                .set("samples", a.samples as f64)
                .set("kernel_lanes", a.kernel_lanes as f64)
                .set("batches", a.batches as f64)
                .set("ns_queue_mean", mean(a.queue_ns, a.samples))
                .set("ns_batch_mean", mean(a.batch_ns, a.samples))
                .set("ns_kernel_lane", mean(a.kernel_ns, a.kernel_lanes))
                .set("ns_fallback_lane", mean(a.fallback_ns, a.kernel_lanes)),
        );
        g.sampled += a.samples;
    }

    let mut slowest: Vec<_> = report.completions.iter().collect();
    slowest.sort_unstable_by_key(|c| std::cmp::Reverse(c.latency_ns));
    g.slowest = slowest
        .iter()
        .take(EXEMPLAR_CAP)
        .map(|c| {
            exemplar(c.func, c.x_bits)
                .set("latency_ns", c.latency_ns as f64)
                .set("tag", c.tag as f64)
        })
        .collect();
}

fn print_workload_rows(rows: &[Json]) {
    println!(
        "\n{:>24} | {:>8} | {:>9} | {:>9} | {:>8} | {:>10} | {:>10} | {:>9} | {:>9}",
        "workload",
        "requests",
        "p50 (ns)",
        "p99 (ns)",
        "samples",
        "queue (ns)",
        "batch (ns)",
        "kern/lane",
        "fall/lane"
    );
    println!("{}", "-".repeat(116));
    let num = |r: &Json, k: &str| r.get(k).and_then(Json::as_num).unwrap_or(0.0);
    for r in rows {
        println!(
            "{:>24} | {:>8} | {:>9} | {:>9} | {:>8} | {:>10.0} | {:>10.0} | {:>9.1} | {:>9.2}",
            r.get("name").and_then(Json::as_str).unwrap_or("?"),
            num(r, "requests"),
            num(r, "ns_p50"),
            num(r, "ns_p99"),
            num(r, "samples"),
            num(r, "ns_queue_mean"),
            num(r, "ns_batch_mean"),
            num(r, "ns_kernel_lane"),
            num(r, "ns_fallback_lane"),
        );
    }
}

fn exemplar(func: u8, x_bits: u32) -> Json {
    Json::obj()
        .set("func", workload::func_label(func % workload::NUM_FUNCS as u8).as_str())
        .set("x_bits", f64::from(x_bits))
}

fn check_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    check_serve_report(&doc).map_err(|e| format!("{path}: {e}"))?;
    let rows = doc.get("functions").and_then(Json::as_arr).map_or(0, <[Json]>::len);
    let injected = doc.get("total_injected").and_then(Json::as_num).unwrap_or(0.0);
    println!(
        "{path}: ok — {rows} rows, {injected} injections, every scenario balanced with zero \
         mismatches, schema {SCHEMA}"
    );
    Ok(())
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_serve.json".to_string();
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out requires a path"),
            "--check" => check_path = Some(args.next().expect("--check requires a path")),
            other => panic!("bad arg '{other}'"),
        }
    }
    if let Some(path) = check_path {
        if let Err(e) = check_file(&path) {
            eprintln!("serve_report --check failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    let fault = rlibm_serve::chaos::injection_compiled_in();
    let telemetry = rlibm_obs::enabled();
    #[cfg(feature = "fault")]
    rlibm_serve::chaos::install_panic_filter();
    rlibm_serve::register_metrics();
    rlibm_obs::reset_all();

    let table = scenarios(quick);
    println!(
        "serve_report: {} scenarios, trace sampling 1/{}{}{}\n",
        table.len(),
        1u64 << obs_trace::DEFAULT_SAMPLE_SHIFT,
        if fault { ", fault injection on" } else { "" },
        if quick { " (quick mode)" } else { "" }
    );
    println!(
        "{:>18} | {:>9} | {:>9} | {:>7} | {:>6}/{:<6} | {:>8} | {:>5} | {:>9} | {:>10}",
        "scenario",
        "submitted",
        "complete",
        "sheds",
        "panics",
        "rstrts",
        "injected",
        "dumps",
        "p99 (ns)",
        "req/s"
    );
    println!("{}", "-".repeat(112));
    let mut g = Gathered { sheds: vec![Vec::new(); SHED_REASONS.len()], ..Gathered::default() };
    for s in &table {
        run_scenario(s, &mut g);
    }
    println!("{}", "-".repeat(112));
    print_workload_rows(&g.workload_rows);
    println!(
        "\n{} requests, {} injections; sampled {} healthy requests; {} rescalar lanes, {} \
         rescalar exemplars seen ({} kept); {} flight dump(s) ({} panic, {} corruption); {} \
         trace drops",
        g.submitted,
        g.injected,
        g.sampled,
        g.rescalar_lanes,
        g.rescalar_seen,
        g.rescalar.len(),
        g.flight_panic + g.flight_corruption,
        g.flight_panic,
        g.flight_corruption,
        obs_trace::dropped_events(),
    );
    if fault && !quick {
        assert!(
            g.injected >= FULL_INJECTION_FLOOR,
            "full run certified only {} injections (floor {FULL_INJECTION_FLOOR})",
            g.injected
        );
    }

    let mut exemplars = Json::obj();
    for (items, &(_, section)) in g.sheds.into_iter().zip(SHED_REASONS) {
        exemplars = exemplars.set(section, items);
    }
    let exemplars = exemplars.set("rescalar", g.rescalar).set("slowest", g.slowest);
    let doc = Json::obj()
        .set("schema", SCHEMA)
        .set("quick", quick)
        .set("fault", fault)
        .set("telemetry", telemetry)
        .set("sample_shift", f64::from(obs_trace::DEFAULT_SAMPLE_SHIFT))
        .set("n_inputs", g.submitted as f64)
        .set("total_injected", g.injected as f64)
        .set("sampled", g.sampled as f64)
        .set("dropped_events", obs_trace::dropped_events() as f64)
        .set("rescalar_events", g.rescalar_lanes as f64)
        .set("stage_quantiles", g.stage_quantiles.expect("the healthy scenario ran"))
        .set(
            "flight",
            Json::obj()
                .set("dumps", (g.flight_panic + g.flight_corruption) as f64)
                .set("panic_dumps", g.flight_panic as f64)
                .set("corruption_dumps", g.flight_corruption as f64)
                .set("events", g.flight_events as f64),
        )
        .set("exemplars", exemplars)
        .set("functions", g.rows.into_iter().chain(g.workload_rows).collect::<Vec<_>>());
    write_validated(&out_path, &doc, check_serve_report).expect("write BENCH_serve.json");
    println!("wrote {out_path} (schema {SCHEMA}, parsed + validated)");
}
