//! Exhaustive 2^32 certification sweep — the paper's all-inputs claim as
//! a checked, committed artifact.
//!
//! Drives [`rlibm_core::certify`] over every tier-1 function: for each
//! u32 bit pattern the two-tier fast path is bit-compared against the
//! dd-only reference, and a budgeted subset of shards is spot-checked
//! against the Ziv oracle (dd vs oracle — the other half of the
//! certification argument). Per-function progress persists in tmp+rename
//! checkpoint files under `--state-dir`, so a killed run resumes at
//! shard granularity and coverage accumulates across invocations; the
//! accumulated state renders into `CERT_manifest.json`
//! (schema `rlibm-cert/v1`, re-parsed and schema-checked on emission).
//!
//! Usage: `cargo run -p rlibm-bench --release --bin certify -- \
//!             [--funcs ln,exp,...] [--kinds float32,posit32] \
//!             [--shard-bits N] [--max-shards N] [--oracle-stride N] \
//!             [--oracle-samples N] [--state-dir DIR] [--out PATH] \
//!             [--quick] [--check PATH]`
//!
//! `--quick` is the CI smoke mode: small shards over the special-value
//! regions of every function (fresh state each run). `--check PATH`
//! validates a committed manifest — schema, registry agreement, internal
//! consistency, canonical formatting — without sweeping.
//!
//! Exits nonzero on any recorded mismatch, so CI fails the moment a
//! sweep finds an incorrectly rounded input.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rlibm_bench::json::{check_bench_schema, parse, write_validated, Json};
use rlibm_core::certify::{sweep_shard, CertState, OracleBudget, DEFAULT_SHARD_BITS};
use rlibm_mp::{correctly_rounded, Func};
use rlibm_posit::Posit32;

pub const SCHEMA: &str = "rlibm-cert/v1";
pub const PER_FN_FIELDS: &[&str] = &[
    "shard_bits",
    "shards_total",
    "shards_done",
    "inputs_checked",
    "mismatches",
    "first_mismatch",
    "oracle_checked",
    "oracle_mismatches",
    "first_oracle_mismatch",
];

/// Fixed base seed for the oracle spot-check sampler: reruns draw the
/// same sample set, so oracle coverage is reproducible.
const ORACLE_SEED: u64 = 0xCE27_2021;

/// Canonical NaN policy: every NaN output (the payload is a don't-care
/// in the two-tier contract) compares as the quiet NaN bit pattern.
fn f32_bits_fn(f: fn(f32) -> f32) -> impl Fn(u32) -> u32 + Sync {
    move |b| {
        let y = f(f32::from_bits(b));
        if y.is_nan() {
            0x7FC0_0000
        } else {
            y.to_bits()
        }
    }
}

fn posit_bits_fn(f: fn(Posit32) -> Posit32) -> impl Fn(u32) -> u32 + Sync {
    move |b| f(Posit32::from_bits(b)).to_bits()
}

/// The two representation kinds under certification.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Float32,
    Posit32,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Float32 => "float32",
            Kind::Posit32 => "posit32",
        }
    }

    fn funcs(self) -> &'static [Func] {
        match self {
            Kind::Float32 => &Func::ALL,
            Kind::Posit32 => &Func::POSIT,
        }
    }

    /// Quick-mode shard selection (shard_bits = 16): the top-16-bit
    /// prefixes of the special-value regions sampling historically
    /// under-weights — zero/subnormal, unity, overflow/NaN boundary,
    /// negative zero, negative infinity (NaR and saturation for posits).
    fn quick_shards(self) -> &'static [u32] {
        match self {
            Kind::Float32 => &[0x0000, 0x3F80, 0x7F80, 0x8000, 0xFF80],
            Kind::Posit32 => &[0x0000, 0x4000, 0x7FFF, 0x8000, 0xC000],
        }
    }
}

struct Cli {
    funcs: Option<Vec<String>>,
    kinds: Vec<Kind>,
    shard_bits: u32,
    max_shards: Option<usize>,
    oracle_stride: u32,
    oracle_samples: u32,
    state_dir: PathBuf,
    out: String,
    quick: bool,
    check: Option<String>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        funcs: None,
        kinds: vec![Kind::Float32, Kind::Posit32],
        shard_bits: DEFAULT_SHARD_BITS,
        max_shards: None,
        oracle_stride: 8,
        oracle_samples: 64,
        state_dir: PathBuf::from("target/certify"),
        out: "CERT_manifest.json".to_string(),
        quick: false,
        check: None,
    };
    let mut args = std::env::args().skip(1);
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| panic!("{flag} requires a value"))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--funcs" => {
                cli.funcs =
                    Some(need(&mut args, "--funcs").split(',').map(str::to_string).collect())
            }
            "--kinds" => {
                cli.kinds = need(&mut args, "--kinds")
                    .split(',')
                    .map(|k| match k {
                        "float32" => Kind::Float32,
                        "posit32" => Kind::Posit32,
                        other => panic!("unknown kind '{other}' (float32|posit32)"),
                    })
                    .collect()
            }
            "--shard-bits" => {
                cli.shard_bits = need(&mut args, "--shard-bits").parse().expect("numeric shard-bits")
            }
            "--max-shards" => {
                cli.max_shards =
                    Some(need(&mut args, "--max-shards").parse().expect("numeric max-shards"))
            }
            "--oracle-stride" => {
                cli.oracle_stride =
                    need(&mut args, "--oracle-stride").parse().expect("numeric oracle-stride")
            }
            "--oracle-samples" => {
                cli.oracle_samples =
                    need(&mut args, "--oracle-samples").parse().expect("numeric oracle-samples")
            }
            "--state-dir" => cli.state_dir = PathBuf::from(need(&mut args, "--state-dir")),
            "--out" => cli.out = need(&mut args, "--out"),
            "--quick" => {
                cli.quick = true;
                cli.shard_bits = 16;
                cli.oracle_stride = 1;
                cli.oracle_samples = 16;
                cli.state_dir = PathBuf::from("target/bench-smoke/certify-state");
            }
            "--check" => cli.check = Some(need(&mut args, "--check")),
            other => panic!("unknown argument '{other}'"),
        }
    }
    cli
}

/// Bit transfer closures for one (kind, function) pair.
struct Target {
    kind: Kind,
    func: Func,
    fast: Box<dyn Fn(u32) -> u32 + Sync>,
    reference: Box<dyn Fn(u32) -> u32 + Sync>,
    oracle: Box<dyn Fn(u32) -> u32 + Sync>,
}

fn targets(kinds: &[Kind], funcs: &Option<Vec<String>>) -> Vec<Target> {
    let mut out = Vec::new();
    for &kind in kinds {
        for &func in kind.funcs() {
            if let Some(sel) = funcs {
                if !sel.iter().any(|n| n == func.name()) {
                    continue;
                }
            }
            let t = match kind {
                Kind::Float32 => {
                    let fast = rlibm_math::f32_fn_by_name(func.name()).expect("registry name");
                    let dd = rlibm_math::f32_dd_fn_by_name(func.name()).expect("registry name");
                    Target {
                        kind,
                        func,
                        fast: Box::new(f32_bits_fn(fast)),
                        reference: Box::new(f32_bits_fn(dd)),
                        oracle: Box::new(move |b| {
                            let y = correctly_rounded::<f32>(func, f32::from_bits(b));
                            if y.is_nan() {
                                0x7FC0_0000
                            } else {
                                y.to_bits()
                            }
                        }),
                    }
                }
                Kind::Posit32 => {
                    let fast = rlibm_math::posit32_fn_by_name(func.name()).expect("registry name");
                    let dd = rlibm_math::posit32_dd_fn_by_name(func.name()).expect("registry name");
                    Target {
                        kind,
                        func,
                        fast: Box::new(posit_bits_fn(fast)),
                        reference: Box::new(posit_bits_fn(dd)),
                        oracle: Box::new(move |b| {
                            correctly_rounded::<Posit32>(func, Posit32::from_bits(b)).to_bits()
                        }),
                    }
                }
            };
            out.push(t);
        }
    }
    out
}

/// One function's sweep for this invocation: loads state, sweeps the
/// selected shards (checkpointing after every shard), returns the state.
fn run_target(t: &Target, cli: &Cli) -> CertState {
    let mut state =
        CertState::load_or_new(&cli.state_dir, t.func.name(), t.kind.name(), cli.shard_bits)
            .unwrap_or_else(|e| panic!("{e}"));
    let shards: Vec<u32> = if cli.quick {
        t.kind.quick_shards().iter().copied().filter(|s| state.verdict(*s).is_none()).collect()
    } else {
        let remaining = state.remaining();
        match cli.max_shards {
            Some(n) => remaining.into_iter().take(n).collect(),
            None => remaining,
        }
    };
    if shards.is_empty() {
        println!(
            "{:>8} {:<6} | up to date ({})",
            t.kind.name(),
            t.func.name(),
            state.summary().status()
        );
        return state;
    }
    let threads = rlibm_core::par::num_threads();
    let start = Instant::now();
    let mut swept = 0u64;
    for &shard in &shards {
        let budget;
        let oracle = if cli.oracle_stride > 0 && shard % cli.oracle_stride == 0 {
            budget = OracleBudget {
                oracle: t.oracle.as_ref(),
                samples: cli.oracle_samples,
                seed: ORACLE_SEED,
            };
            Some(&budget)
        } else {
            None
        };
        let v = sweep_shard(shard, cli.shard_bits, threads, &t.fast, &t.reference, oracle)
            .unwrap_or_else(|e| panic!("{e}"));
        if v.mismatches > 0 || v.oracle_mismatches > 0 {
            println!(
                "{:>8} {:<6} | shard {shard:#x}: {} fast-vs-dd mismatches (first {:#010x?}), \
                 {} dd-vs-oracle mismatches (first {:#010x?})",
                t.kind.name(),
                t.func.name(),
                v.mismatches,
                v.first_mismatch,
                v.oracle_mismatches,
                v.first_oracle_mismatch,
            );
        }
        state.record(v).unwrap_or_else(|e| panic!("{e}"));
        state.save(&cli.state_dir).unwrap_or_else(|e| panic!("{e}"));
        swept += 1;
    }
    let s = state.summary();
    let elapsed = start.elapsed().as_secs_f64();
    let inputs = swept << cli.shard_bits;
    println!(
        "{:>8} {:<6} | {swept} shards ({inputs} inputs) in {elapsed:.1}s \
         ({:.1} Minput/s) | total {}/{} shards, {} mismatches, status {}",
        t.kind.name(),
        t.func.name(),
        inputs as f64 / elapsed / 1e6,
        s.shards_done,
        s.shards_total,
        s.mismatches,
        s.status(),
    );
    state
}

fn opt_bits_json(bits: Option<u32>) -> f64 {
    bits.map_or(-1.0, f64::from)
}

fn manifest(states: &[CertState]) -> Json {
    let mut funcs = Vec::new();
    for st in states {
        let s = st.summary();
        funcs.push(
            Json::obj()
                .set("name", format!("{}/{}", st.kind(), st.func()).as_str())
                .set("kind", st.kind())
                .set("func", st.func())
                .set("status", s.status())
                .set("done_ranges", st.done_ranges().as_str())
                .set("shard_bits", f64::from(st.shard_bits()))
                .set("shards_total", s.shards_total as f64)
                .set("shards_done", s.shards_done as f64)
                .set("inputs_checked", s.inputs_checked as f64)
                .set("mismatches", s.mismatches as f64)
                .set("first_mismatch", opt_bits_json(s.first_mismatch))
                .set("oracle_checked", s.oracle_checked as f64)
                .set("oracle_mismatches", s.oracle_mismatches as f64)
                .set("first_oracle_mismatch", opt_bits_json(s.first_oracle_mismatch)),
        );
    }
    Json::obj()
        .set("schema", SCHEMA)
        .set("n_inputs", (1u64 << 32) as f64)
        .set("functions", funcs)
}

/// `--check`: validates a committed manifest without sweeping — schema,
/// registry agreement (the function set must match the live dispatch
/// tables), internal consistency, zero mismatches, and canonical
/// formatting (the file must byte-match its own re-emission, so
/// hand-edits that still parse are caught).
fn check_manifest(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    check_bench_schema(&doc, SCHEMA, PER_FN_FIELDS).map_err(|e| format!("{path}: {e}"))?;
    if doc.to_pretty() != text {
        return Err(format!("{path}: not in canonical form (regenerate with the certify bin)"));
    }
    let funcs = doc.get("functions").and_then(Json::as_arr).unwrap_or(&[]);
    let mut expected: Vec<String> = Vec::new();
    for kind in [Kind::Float32, Kind::Posit32] {
        for f in kind.funcs() {
            expected.push(format!("{}/{}", kind.name(), f.name()));
        }
    }
    let got: Vec<String> = funcs
        .iter()
        .map(|f| f.get("name").and_then(Json::as_str).unwrap_or("?").to_string())
        .collect();
    if got != expected {
        return Err(format!(
            "{path}: function set {got:?} does not match the live registry {expected:?}"
        ));
    }
    for f in funcs {
        let name = f.get("name").and_then(Json::as_str).unwrap_or("?");
        let num = |k: &str| f.get(k).and_then(Json::as_num).unwrap_or(f64::NAN);
        if num("mismatches") != 0.0 {
            return Err(format!("{path}: {name} records {} mismatches", num("mismatches")));
        }
        if num("oracle_mismatches") != 0.0 {
            return Err(format!(
                "{path}: {name} records {} oracle mismatches",
                num("oracle_mismatches")
            ));
        }
        if num("shards_done") > num("shards_total") {
            return Err(format!("{path}: {name} has shards_done > shards_total"));
        }
        let bits = num("shard_bits");
        if num("inputs_checked") != num("shards_done") * (bits.exp2()) {
            return Err(format!("{path}: {name} inputs_checked inconsistent with shards_done"));
        }
        let status = f.get("status").and_then(Json::as_str).unwrap_or("?");
        let want = if num("shards_done") == num("shards_total") {
            "complete"
        } else if num("shards_done") > 0.0 {
            "partial"
        } else {
            "pending"
        };
        if status != want {
            return Err(format!("{path}: {name} status '{status}', expected '{want}'"));
        }
    }
    Ok(())
}

fn main() {
    let cli = parse_cli();
    if let Some(path) = &cli.check {
        match check_manifest(path) {
            Ok(()) => {
                println!("{path}: certification manifest OK");
                return;
            }
            Err(e) => {
                eprintln!("certify --check failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if cli.quick {
        // The smoke re-certifies its shard set from scratch every run:
        // stale state would turn the check into a no-op.
        let _ = std::fs::remove_dir_all(&cli.state_dir);
    }
    println!(
        "Certification sweep: shard_bits={} ({} inputs/shard), oracle stride {} x {} samples, \
         state {}{}\n",
        cli.shard_bits,
        1u64 << cli.shard_bits,
        cli.oracle_stride,
        cli.oracle_samples,
        cli.state_dir.display(),
        if cli.quick { ", quick mode" } else { "" },
    );

    let ts = targets(&cli.kinds, &cli.funcs);
    assert!(!ts.is_empty(), "no functions selected");
    let states: Vec<CertState> = ts.iter().map(|t| run_target(t, &cli)).collect();

    // The manifest always covers the full registry (pending entries for
    // functions outside this invocation's selection), so the committed
    // file's function set is stable across partial runs.
    let all = targets(&[Kind::Float32, Kind::Posit32], &None);
    let full_states: Vec<CertState> = all
        .iter()
        .map(|t| {
            states
                .iter()
                .find(|s| s.kind() == t.kind.name() && s.func() == t.func.name())
                .cloned()
                .unwrap_or_else(|| {
                    CertState::load_or_new(
                        &cli.state_dir,
                        t.func.name(),
                        t.kind.name(),
                        cli.shard_bits,
                    )
                    .unwrap_or_else(|e| panic!("{e}"))
                })
        })
        .collect();

    let doc = manifest(&full_states);
    if let Some(parent) = Path::new(&cli.out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output dir");
        }
    }
    write_validated(&cli.out, &doc, |d| check_bench_schema(d, SCHEMA, PER_FN_FIELDS)).expect("write manifest");
    println!("\nwrote {}", cli.out);

    let total_mismatches: u64 =
        full_states.iter().map(|s| s.summary().mismatches + s.summary().oracle_mismatches).sum();
    let done: u64 = full_states.iter().map(|s| s.summary().shards_done).sum();
    let total: u64 = full_states.iter().map(|s| s.summary().shards_total).sum();
    println!(
        "coverage: {done}/{total} shards across {} functions; {total_mismatches} mismatches",
        full_states.len(),
    );
    if total_mismatches > 0 {
        eprintln!("certification FAILED: mismatches recorded (see manifest)");
        std::process::exit(1);
    }
}
