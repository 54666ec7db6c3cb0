//! Chaos harness for the supervised serving layer (feature `fault`).
//!
//! Drives `rlibm-serve` through six adversarial scenarios — panic
//! storms, injected flush delays under deadlines, ring-slot corruption,
//! producer backpressure, a mid-run graceful drain, and kernel-level
//! fast-path faults composed with shard panics — and asserts the
//! service's failure contract on every one:
//!
//! > Every submitted request ends as **exactly one** of a bit-identical
//! > completion or an explicitly-reasoned shed record, and **zero**
//! > mis-rounded outputs escape, no matter what is injected.
//!
//! Each scenario's accounting (completions, sheds by reason, panics,
//! restarts, injection counts, mismatches, unaccounted remainder) lands
//! in a schema-checked `CHAOS_manifest.json` (`rlibm-chaos/v1`,
//! re-parsed and validated before exit). A full run must land at least
//! [`FULL_INJECTION_FLOOR`] injections across all modes; `--quick`
//! shrinks the workloads for the CI smoke and drops the floor.
//!
//! `--check PATH` re-validates a committed manifest without re-running:
//! schema, per-row invariants (`unaccounted == 0`, `mismatches == 0`)
//! and the full-run injection floor. ci.sh runs it against the
//! committed artifact so a hand-edited or stale manifest fails the
//! build.
//!
//! Usage: `cargo run -p rlibm-bench --release --features fault \
//!             --bin chaos_bench -- [--quick] [--out PATH]`
//!        `... --bin chaos_bench -- --check CHAOS_manifest.json`

use rlibm_bench::json::{check_bench_schema, parse, write_validated, Json};
use rlibm_obs::quantile::percentile;
use rlibm_serve::{serve_closed_loop, workload, ChaosConfig, ServeConfig, ShedReason};

pub const SCHEMA: &str = "rlibm-chaos/v1";
pub const PER_FN_FIELDS: &[&str] = &["ns_p50", "ns_p99"];

/// Minimum total injections (serve-layer + kernel-layer) a full run
/// must certify against.
pub const FULL_INJECTION_FLOOR: u64 = 100_000;

/// What a scenario is required to have exercised (beyond the universal
/// invariants, which every scenario asserts).
#[derive(Default)]
struct Expect {
    panics: bool,
    delays: bool,
    corruptions: bool,
    kernel_faults: bool,
    deadline_sheds: bool,
    backpressure_sheds: bool,
    admission_sheds: bool,
    /// The restart budget is unlimited, so no shard may give up and
    /// every panic must be followed by a restart.
    full_recovery: bool,
}

struct ScenarioResult {
    row: Json,
    injected: u64,
    submitted: u64,
}

/// Totals from the kernel-level injection sites (cumulative per
/// process; scenarios diff around their run).
fn kernel_injected_total() -> u64 {
    rlibm_core::fault::site_injections().iter().map(|(_, _, n)| n).sum()
}

fn run_scenario(name: &str, cfg: &ServeConfig, expect: &Expect) -> ScenarioResult {
    let kernel0 = kernel_injected_total();
    let report = serve_closed_loop(cfg)
        .unwrap_or_else(|e| panic!("scenario {name}: accounting lost: {e}"));
    let kernel_injections = kernel_injected_total() - kernel0;

    // The universal invariant, asserted on every scenario regardless of
    // what was injected.
    let completions = report.completions.len() as u64;
    let sheds = report.sheds.len() as u64;
    let unaccounted = report.submitted.saturating_sub(completions + sheds);
    assert!(
        report.balanced(),
        "scenario {name}: {completions} completions + {sheds} sheds != {} submitted",
        report.submitted
    );
    let mismatches = workload::count_mismatches(&report.completions);
    assert_eq!(mismatches, 0, "scenario {name}: mis-rounded outputs escaped");
    // Exactly-once across both outcome kinds: no tag may appear twice.
    let mut tags: Vec<u64> = report
        .completions
        .iter()
        .map(|c| c.tag)
        .chain(report.sheds.iter().map(|s| s.tag))
        .collect();
    tags.sort_unstable();
    let before = tags.len();
    tags.dedup();
    assert_eq!(tags.len(), before, "scenario {name}: a request ended twice");
    // Every caught panic is one we injected — a non-chaos panic in the
    // worker body would break this equality.
    assert_eq!(
        report.panics, report.chaos.panics,
        "scenario {name}: caught panics != injected panics"
    );

    // Scenario-specific obligations: the chaos plan must actually have
    // fired, otherwise the scenario certifies nothing.
    if expect.panics {
        assert!(report.chaos.panics > 0, "scenario {name}: no panics injected");
    }
    if expect.delays {
        assert!(report.chaos.delays > 0, "scenario {name}: no delays injected");
    }
    if expect.corruptions {
        assert!(report.chaos.corruptions > 0, "scenario {name}: no corruption injected");
        assert_eq!(
            report.shed_count(ShedReason::Corrupted),
            report.chaos.corruptions,
            "scenario {name}: every corruption must be detected and shed, exactly"
        );
    }
    if expect.kernel_faults {
        assert!(kernel_injections > 0, "scenario {name}: no kernel faults injected");
    }
    if expect.deadline_sheds {
        assert!(
            report.shed_count(ShedReason::Deadline) > 0,
            "scenario {name}: deadline pressure produced no deadline sheds"
        );
    }
    if expect.backpressure_sheds {
        assert!(
            report.shed_count(ShedReason::Backpressure) > 0,
            "scenario {name}: overload produced no backpressure sheds"
        );
    }
    if expect.full_recovery {
        assert!(
            report.failed_shards.is_empty(),
            "scenario {name}: a shard gave up despite an unlimited restart budget"
        );
        assert_eq!(
            report.restarts, report.panics,
            "scenario {name}: every caught panic must restart its shard"
        );
    }
    if expect.admission_sheds {
        assert!(
            report.shed_count(ShedReason::AdmissionClosed) > 0,
            "scenario {name}: the drain produced no admission sheds"
        );
        assert!(!report.completions.is_empty(), "scenario {name}: drain served nothing");
        assert_eq!(report.quiesce.len(), report.shards, "scenario {name}: quiesce rows");
    }

    let mut lat: Vec<u64> = report.completions.iter().map(|c| c.latency_ns).collect();
    lat.sort_unstable();
    let (p50, p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
    let injected = report.chaos.total() + kernel_injections;
    println!(
        "{name:>18} | {:>9} | {:>9} | {:>7} | {:>6}/{:<6} | {:>8} | {:>9} | ok",
        report.submitted,
        completions,
        sheds,
        report.panics,
        report.restarts,
        injected,
        p99,
    );
    let row = Json::obj()
        .set("name", name)
        .set("requests", report.submitted as f64)
        .set("completions", completions as f64)
        .set("sheds", sheds as f64)
        .set("shed_deadline", report.shed_count(ShedReason::Deadline) as f64)
        .set("shed_backpressure", report.shed_count(ShedReason::Backpressure) as f64)
        .set("shed_admission", report.shed_count(ShedReason::AdmissionClosed) as f64)
        .set("shed_corrupted", report.shed_count(ShedReason::Corrupted) as f64)
        .set("shed_poisoned", report.shed_count(ShedReason::Poisoned) as f64)
        .set("panics", report.panics as f64)
        .set("restarts", report.restarts as f64)
        .set("failed_shards", report.failed_shards.len() as f64)
        .set("delays", report.chaos.delays as f64)
        .set("corruptions", report.chaos.corruptions as f64)
        .set("kernel_injections", kernel_injections as f64)
        .set("mismatches", mismatches as f64)
        .set("unaccounted", unaccounted as f64)
        .set("ns_p50", p50 as f64)
        .set("ns_p99", p99 as f64);
    ScenarioResult { row, injected, submitted: report.submitted }
}

/// Re-validates a committed manifest: schema shape, per-row invariants,
/// and the full-run injection floor. Exits nonzero on any violation.
fn check_manifest(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    check_bench_schema(&doc, SCHEMA, PER_FN_FIELDS).map_err(|e| format!("{path}: {e}"))?;
    let quick = matches!(doc.get("quick"), Some(Json::Bool(true)));
    let rows = doc.get("functions").and_then(Json::as_arr).unwrap_or(&[]);
    let mut total_injected = 0.0;
    for row in rows {
        let name = row.get("name").and_then(Json::as_str).unwrap_or("?");
        for (field, want_zero) in [("unaccounted", true), ("mismatches", true)] {
            let v = row
                .get(field)
                .and_then(Json::as_num)
                .ok_or(format!("{path}: row '{name}' missing '{field}'"))?;
            if want_zero && v != 0.0 {
                return Err(format!("{path}: row '{name}' has nonzero {field} = {v}"));
            }
        }
        for field in ["requests", "completions", "sheds", "panics", "restarts"] {
            row.get(field)
                .and_then(Json::as_num)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or(format!("{path}: row '{name}' missing numeric '{field}'"))?;
        }
        let (req, comp, sheds) = (
            row.get("requests").and_then(Json::as_num).unwrap_or(0.0),
            row.get("completions").and_then(Json::as_num).unwrap_or(0.0),
            row.get("sheds").and_then(Json::as_num).unwrap_or(0.0),
        );
        if comp + sheds != req {
            return Err(format!(
                "{path}: row '{name}' does not balance: {comp} + {sheds} != {req}"
            ));
        }
        for field in ["delays", "corruptions", "kernel_injections", "panics"] {
            total_injected += row.get(field).and_then(Json::as_num).unwrap_or(0.0);
        }
    }
    let claimed = doc
        .get("total_injected")
        .and_then(Json::as_num)
        .ok_or(format!("{path}: missing 'total_injected'"))?;
    if claimed != total_injected {
        return Err(format!(
            "{path}: total_injected {claimed} != per-row sum {total_injected}"
        ));
    }
    if !quick && total_injected < FULL_INJECTION_FLOOR as f64 {
        return Err(format!(
            "{path}: full manifest certifies only {total_injected} injections \
             (floor {FULL_INJECTION_FLOOR})"
        ));
    }
    println!(
        "{path}: ok — {} scenario(s), {total_injected} injections, all rows balanced, \
         zero mismatches",
        rows.len()
    );
    Ok(())
}

/// Keeps injected chaos panics (static payload prefixed "chaos:") out
/// of stderr — thousands of expected unwinds would drown real failures
/// — while leaving every other panic loudly reported.
fn install_chaos_panic_filter() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected =
            info.payload().downcast_ref::<&str>().is_some_and(|s| s.starts_with("chaos:"));
        if !injected {
            default_hook(info);
        }
    }));
}

fn main() {
    let mut quick = false;
    let mut out_path = "CHAOS_manifest.json".to_string();
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
        if let Err(e) = check_manifest(&path) {
            eprintln!("chaos_bench --check failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    install_chaos_panic_filter();
    rlibm_serve::register_metrics();
    assert!(rlibm_serve::chaos::injection_compiled_in());
    // Workload scale: full mode is sized so the committed manifest
    // certifies >= FULL_INJECTION_FLOOR injections with margin.
    let scale = |full: u64, q: u64| if quick { q } else { full };
    let base = ServeConfig {
        shards: 2,
        producers: 2,
        queue_capacity: 512,
        seed: 0xC4A0_5EED,
        posit_permille: 250,
        restart_backoff_ns: 1_000,
        ..ServeConfig::default()
    };
    println!(
        "chaos_bench: 6 scenarios{}\n",
        if quick { " (quick mode)" } else { "" }
    );
    println!(
        "{:>18} | {:>9} | {:>9} | {:>7} | {:>6}/{:<6} | {:>8} | {:>9} |",
        "scenario", "submitted", "complete", "sheds", "panics", "restarts", "injected", "p99 (ns)"
    );
    println!("{}", "-".repeat(96));

    let results = vec![
    // 1. Panic storm: a few percent of flushes unwind the worker before
    //    any completion is recorded; the supervisor must restart the
    //    shard into a pass that resumes the buffered work, without
    //    losing or duplicating a request.
    run_scenario(
        "panic_storm",
        &ServeConfig {
            requests: scale(300_000, 30_000),
            max_restarts: u32::MAX,
            chaos: Some(ChaosConfig {
                seed: 0x9A41C,
                panic_per_million: 30_000,
                ..ChaosConfig::default()
            }),
            ..base.clone()
        },
        &Expect { panics: true, full_recovery: true, ..Expect::default() },
    ),

    // 2. Deadline pressure: injected 1ms flush stalls against a 0.5ms
    //    deadline — requests queued behind a stall must be shed as
    //    Deadline records, not served late or dropped.
    run_scenario(
        "deadline_pressure",
        &ServeConfig {
            requests: scale(200_000, 20_000),
            deadline_ns: 500_000,
            chaos: Some(ChaosConfig {
                seed: 0x00DE_AD11,
                delay_per_million: 50_000,
                delay_ns: 1_000_000,
                ..ChaosConfig::default()
            }),
            ..base.clone()
        },
        &Expect { delays: true, deadline_sheds: true, ..Expect::default() },
    ),

    // 3. Ring corruption: 8% of dequeues have one bit of x_bits flipped
    //    in the slot. The per-request checksum must catch every single
    //    one (shed Corrupted, count-exact) — none may reach a kernel.
    run_scenario(
        "corruption",
        &ServeConfig {
            requests: scale(1_500_000, 40_000),
            chaos: Some(ChaosConfig {
                seed: 0xBAD_B174,
                corrupt_per_million: 80_000,
                ..ChaosConfig::default()
            }),
            ..base.clone()
        },
        &Expect { corruptions: true, ..Expect::default() },
    ),

    // 4. Backpressure: a tiny ring, a spin-only push budget (16
    //    attempts resolve in nanoseconds, well inside an injected 2ms
    //    stall) and frequent long stalls force the producers'
    //    bounded-backoff push to give up — overload becomes typed
    //    Backpressure sheds instead of an unbounded spin.
    run_scenario(
        "backpressure",
        &ServeConfig {
            requests: scale(150_000, 15_000),
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
        &Expect { delays: true, backpressure_sheds: true, ..Expect::default() },
    ),

    // 5. Drain under load: admission closes mid-run while flushes are
    //    being stalled; admitted work is served, the remainder becomes
    //    AdmissionClosed sheds, and every shard quiesces cleanly.
    run_scenario(
        "drain_under_load",
        &ServeConfig {
            requests: scale(2_000_000, 150_000),
            drain_after_ns: scale(30_000_000, 3_000_000),
            chaos: Some(ChaosConfig {
                seed: 0x000D_2A14,
                delay_per_million: 20_000,
                delay_ns: 200_000,
                ..ChaosConfig::default()
            }),
            ..base.clone()
        },
        &Expect { delays: true, admission_sheds: true, ..Expect::default() },
    ),

    // 6. Kernel faults under supervision: the PR-3 fast-path corruption
    //    hooks armed on every worker thread *composed with* shard
    //    panics. The injection sites live in the scalar fns, which the
    //    batched entries re-enter for every lane a domain filter or
    //    both bands reject. Both failure layers at once, still
    //    bit-identical completions.
    run_scenario(
        "kernel_faults",
        &ServeConfig {
            requests: scale(400_000, 40_000),
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
        &Expect { panics: true, kernel_faults: true, full_recovery: true, ..Expect::default() },
    ),
    ];

    println!("{}", "-".repeat(96));
    let total_injected: u64 = results.iter().map(|r| r.injected).sum();
    let n_inputs: u64 = results.iter().map(|r| r.submitted).sum();
    println!(
        "\ntotal: {n_inputs} requests, {total_injected} injections across \
         panic/delay/corruption/kernel — every request accounted, zero mis-rounded"
    );
    if !quick {
        assert!(
            total_injected >= FULL_INJECTION_FLOOR,
            "full run certified only {total_injected} injections (floor {FULL_INJECTION_FLOOR})"
        );
    }

    let doc = Json::obj()
        .set("schema", SCHEMA)
        .set("quick", quick)
        .set("n_inputs", n_inputs as f64)
        .set("total_injected", total_injected as f64)
        .set("functions", results.into_iter().map(|r| r.row).collect::<Vec<_>>());
    write_validated(&out_path, &doc, SCHEMA, PER_FN_FIELDS).expect("write chaos manifest");
    println!("wrote {out_path} (schema {SCHEMA}, parsed + validated)");
}
