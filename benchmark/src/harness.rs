//! The harness process: runs each workload in a child process of its
//! own (the untraced build, and on `--trace` also the traced build),
//! relays the children's lines, and prints the result as one JSON line.

use crate::report::{parse_line, result_json, Class, Metric, Sink};
use crate::{child, WORKLOADS};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const USAGE: &str =
    "usage: rlibm-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]";

/// Measurement seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Measure one workload in this process (set by the harness).
    child: bool,
    layers: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        child: false,
        layers: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--child" => {
                a.workload = Some(value("a workload name")?);
                a.child = true;
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") | Some("1") => it.next().is_some_and(|v| v == "1"),
                    _ => true,
                }
            }
            "--smoke" => a.smoke = true,
            "--layers" => a.layers = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (known: {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(a)
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let a = match parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    if a.child {
        let workload = a.workload.as_deref().expect("--child names a workload");
        return child::run(workload, a.seed, a.seconds, a.smoke, a.layers);
    }
    match drive(&a) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rlibm-benchmark: {e}");
            2
        }
    }
}

/// The traced build of this binary lives in its own target directory
/// beside the one this binary was built in.
fn traced_exe(exe: &Path) -> Result<PathBuf, String> {
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the target directory")?;
    let name = exe.file_name().ok_or("cannot name this executable")?;
    Ok(target.join("traced").join("release").join(name))
}

/// Builds (or confirms up to date) the traced binary.
fn build_traced(traced: &Path) -> Result<(), String> {
    let target = traced
        .parent()
        .and_then(Path::parent)
        .ok_or("bad traced path")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--features",
            "traced",
            "--manifest-path",
        ])
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the traced benchmark failed ({status})"));
    }
    Ok(())
}

/// Runs one child to completion, relaying its lines.
fn run_child(
    exe: &Path,
    workload: &str,
    a: &Args,
    seconds: f64,
    layers: bool,
) -> Result<(Sink, bool), String> {
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        workload,
        "--seed",
        &a.seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    if layers {
        cmd.arg("--layers");
    }
    let mut proc = cmd
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting {}: {e}", exe.display()))?;
    let stdout = proc.stdout.take().ok_or("child stdout is piped")?;
    let mut sink = Sink::default();
    let mut read_error = None;
    for line in BufReader::new(stdout).lines() {
        match line {
            Ok(line) => {
                println!("{line}");
                parse_line(&line, &mut sink);
            }
            Err(e) => {
                read_error = Some(format!("reading child output: {e}"));
                // The child may be blocked writing to the pipe we stopped
                // reading; end it before waiting for it.
                let _ = proc.kill();
                break;
            }
        }
    }
    let status = proc.wait().map_err(|e| format!("waiting for child: {e}"))?;
    if let Some(e) = read_error {
        return Err(e);
    }
    Ok((sink, status.success()))
}

/// What one workload contributes to the result line.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    ok: bool,
}

fn measure(exe: &Path, traced: &Path, workload: &str, a: &Args) -> Result<Outcome, String> {
    if !a.trace {
        println!("== {workload}: untraced build, {} s", a.seconds);
        let (sink, ok) = run_child(exe, workload, a, a.seconds, false)?;
        let metrics = sink
            .metrics
            .into_iter()
            .filter(|m| m.class == Class::E2e)
            .collect();
        return Ok(Outcome {
            metrics,
            attempted: sink.attempted,
            failed: sink.failed,
            ok,
        });
    }
    // A trace run splits its seconds between the two builds. Layer
    // timings come from the untraced child; what only telemetry can see
    // (tiers, attribution, LP pivots) comes from the traced one.
    let half = a.seconds / 2.0;
    println!("== {workload}: untraced build, {half} s, with layer probes");
    let (plain, ok_plain) = run_child(exe, workload, a, half, true)?;
    println!("== {workload}: traced build, {half} s, with layer probes");
    let (traced_sink, ok_traced) = run_child(traced, workload, a, half, true)?;
    for m in plain.metrics.iter().filter(|m| m.class == Class::E2e) {
        if let Some(t) = traced_sink.get(&m.name) {
            println!(
                "trace_overhead.{} {:+.2}% ({} -> {} {})",
                m.name,
                100.0 * (t.value / m.value - 1.0),
                m.value,
                t.value,
                m.unit
            );
        }
    }
    let mut layers = Sink::default();
    layers.fill_layers_from(&plain);
    layers.fill_layers_from(&traced_sink);
    Ok(Outcome {
        metrics: layers.metrics,
        attempted: layers.attempted,
        failed: layers.failed,
        ok: ok_plain && ok_traced,
    })
}

fn drive(a: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let traced = traced_exe(&exe)?;
    // The first run builds the traced binary too, so no later run pays
    // for a build inside its time limit.
    if a.trace || !traced.exists() {
        build_traced(&traced)?;
    }
    let workloads: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics = Vec::new();
    for w in &workloads {
        let o = measure(&exe, &traced, w, a)?;
        println!(
            "fail_frac {w} {} ({} of {})",
            o.failed as f64 / o.attempted.max(1) as f64,
            o.failed,
            o.attempted
        );
        correct &= o.ok
            && o.failed == 0
            && o.attempted > 0
            && o.metrics.iter().all(|m| m.value.is_finite());
        attempted += o.attempted;
        failed += o.failed;
        for mut m in o.metrics {
            if workloads.len() > 1 {
                m.name = format!("{w}/{}", m.name);
            }
            metrics.push(m);
        }
    }
    let refs: Vec<&Metric> = metrics.iter().collect();
    println!("{}", result_json(correct, attempted, failed, &refs));
    Ok(if correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn trace_takes_an_optional_value() {
        assert!(args("--trace").expect("parses").trace);
        assert!(args("--trace 1 --seed 3").expect("parses").trace);
        let a = args("--trace 0 --seed 3").expect("parses");
        assert!(!a.trace);
        assert_eq!(a.seed, 3);
    }

    #[test]
    fn rejects_unknown_input() {
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--frobnicate").is_err());
        assert_eq!(
            args("--workload generate")
                .expect("parses")
                .workload
                .as_deref(),
            Some("generate")
        );
    }
}
