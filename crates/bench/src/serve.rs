//! Schema and validator for `BENCH_serve.json` (schema
//! `rlibm-bench/serve/v2`), the one document the `serve_report` harness
//! emits for the serving stack.
//!
//! Its `functions` array is flat and holds two kinds of rows:
//!
//! * one row per scenario of the harness's table ([`SCENARIOS`], plus
//!   [`FAULT_SCENARIOS`] in `fault` builds): throughput, latency
//!   quantiles, sheds by reason, panics, restarts, failed shards,
//!   injection counts, mismatches and flight dumps;
//! * one `healthy.<label>` row per (kind, function) workload of the
//!   healthy scenario: its latency quantiles and the exact stage
//!   attribution of its trace-sampled requests (mean queue wait, mean
//!   batch residency, kernel and rescalar-fallback ns per lane).
//!
//! Every row carries `ns_p50`/`ns_p99`/`ns_p999`, and the attribution
//! fields are `ns_*` too, so `bench_compare` diffs every latency in the
//! document. Beside the rows sit the healthy scenario's stage
//! quantiles (from the `serve.trace.*` log2 histograms), exemplar input
//! bit patterns behind every shed reason, rescalar fallbacks and the
//! slowest healthy completions, a flight-recorder summary and the
//! injection total.
//!
//! [`check_serve_report`] is the single validator, run by the harness on
//! its own emission before exit and by `--check` / ci.sh on the
//! committed file, so a hand-edited or stale report fails the build.

use crate::json::{check_bench_schema, Json};
use rlibm_serve::{workload, ShedReason};

/// Schema tag carried by every serve report.
pub const SCHEMA: &str = "rlibm-bench/serve/v2";

/// Latency quantiles every row carries.
const LATENCY_FIELDS: &[&str] = &["ns_p50", "ns_p99", "ns_p999"];

/// Stage-attribution fields of the `healthy.<label>` rows.
const ATTRIBUTION_FIELDS: &[&str] =
    &["ns_queue_mean", "ns_batch_mean", "ns_kernel_lane", "ns_fallback_lane"];

/// Name prefix of the healthy scenario's per-function rows.
pub const HEALTHY_PREFIX: &str = "healthy.";

/// Scenario rows of every build, in table order.
pub const SCENARIOS: &[&str] = &["healthy", "rescalar_harvest", "deadline", "drain"];

/// Scenario rows that inject chaos and so exist only in `fault` builds.
pub const FAULT_SCENARIOS: &[&str] = &[
    "panic_storm",
    "deadline_pressure",
    "corruption",
    "backpressure",
    "drain_under_load",
    "kernel_faults",
    "restart_exhausted",
];

/// Each shed reason with its exemplar section; a scenario row carries
/// its count as `shed_<section>`.
pub const SHED_REASONS: &[(ShedReason, &str)] = &[
    (ShedReason::Deadline, "deadline"),
    (ShedReason::Backpressure, "backpressure"),
    (ShedReason::AdmissionClosed, "admission"),
    (ShedReason::Corrupted, "corrupted"),
    (ShedReason::Poisoned, "poisoned"),
];

/// The four attributed stages summarized in `stage_quantiles`.
const STAGES: &[&str] = &["queue_wait_ns", "batch_wait_ns", "kernel_ns", "fallback_ns"];

/// Count fields of a scenario row besides its `shed_<section>` counts.
const COUNT_FIELDS: &[&str] = &[
    "requests",
    "completions",
    "sheds",
    "panics",
    "restarts",
    "failed_shards",
    "delays",
    "corruptions",
    "kernel_injections",
    "mismatches",
    "unaccounted",
    "dumps",
];

/// The per-row injection counts that sum to `total_injected`. A caught
/// panic is an injected one: the harness asserts the two are equal.
const INJECTION_FIELDS: &[&str] = &["panics", "delays", "corruptions", "kernel_injections"];

/// Minimum total injections (serve-layer plus kernel-layer) a full
/// fault-build report must certify.
pub const FULL_INJECTION_FLOOR: u64 = 100_000;

fn flag(doc: &Json, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing boolean '{key}'")),
    }
}

/// A finite non-negative number at `key`.
fn count(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_num)
        .filter(|x| x.is_finite() && *x >= 0.0)
        .ok_or(format!("missing numeric '{key}'"))
}

fn row_name(row: &Json) -> &str {
    row.get("name").and_then(Json::as_str).unwrap_or("?")
}

/// Validates a serve report. Beyond the shared bench schema (tag,
/// `n_inputs`, latency fields on every row) it checks:
///
/// * the flags and the stage-quantile, exemplar and flight sections;
/// * the scenario rows are exactly the build's table, in order, and each
///   balances (`completions + sheds == requests`, with the per-reason
///   counts summing to `sheds`), with zero `mismatches` and zero
///   `unaccounted`;
/// * `n_inputs` and `total_injected` equal their per-row sums, and a
///   full fault report certifies at least [`FULL_INJECTION_FLOOR`]
///   injections;
/// * one `healthy.<label>` row per workload, each with its attribution
///   fields.
///
/// Full telemetry-on reports must also attribute every workload on
/// every per-request stage and hold rescalar exemplars; fault reports
/// with telemetry must hold an exemplar for every shed reason and,
/// when full, at least one flight dump. Quick smokes and telemetry-off
/// builds need only the shape.
pub fn check_serve_report(doc: &Json) -> Result<(), String> {
    check_bench_schema(doc, SCHEMA, LATENCY_FIELDS)?;
    let quick = flag(doc, "quick")?;
    let telemetry = flag(doc, "telemetry")?;
    let fault = flag(doc, "fault")?;
    count(doc, "sample_shift")?;

    let stages = doc.get("stage_quantiles").ok_or("missing 'stage_quantiles'")?;
    for stage in STAGES {
        let s = stages.get(stage).ok_or(format!("stage_quantiles missing '{stage}'"))?;
        for field in ["count", "p50", "p99", "p999"] {
            count(s, field).map_err(|e| format!("stage '{stage}': {e}"))?;
        }
    }

    let exemplars = doc.get("exemplars").ok_or("missing 'exemplars'")?;
    let section_len = |name: &str| -> Result<usize, String> {
        exemplars
            .get(name)
            .and_then(Json::as_arr)
            .map(<[Json]>::len)
            .ok_or(format!("exemplars missing '{name}' array"))
    };
    for &(_, name) in SHED_REASONS {
        if section_len(name)? == 0 && fault && telemetry {
            return Err(format!(
                "fault report has no '{name}' shed exemplars (the fault scenarios must \
                 exercise every reason)"
            ));
        }
    }
    if section_len("rescalar")? == 0 && telemetry && !quick {
        return Err("full report has no rescalar exemplars".to_string());
    }
    if section_len("slowest")? == 0 {
        return Err("'slowest' exemplars are empty".to_string());
    }

    let flight = doc.get("flight").ok_or("missing 'flight' summary")?;
    for field in ["dumps", "panic_dumps", "corruption_dumps", "events"] {
        count(flight, field).map_err(|e| format!("flight summary: {e}"))?;
    }
    if fault && telemetry && !quick && count(flight, "dumps")? == 0.0 {
        return Err("fault report captured no flight dumps".to_string());
    }

    let rows = doc.get("functions").and_then(Json::as_arr).unwrap_or(&[]);
    let (healthy, scenarios): (Vec<&Json>, Vec<&Json>) =
        rows.iter().partition(|r| row_name(r).starts_with(HEALTHY_PREFIX));

    let expected: Vec<&str> =
        SCENARIOS.iter().chain(if fault { FAULT_SCENARIOS } else { &[] }).copied().collect();
    let names: Vec<&str> = scenarios.iter().map(|r| row_name(r)).collect();
    if names != expected {
        return Err(format!("scenario rows {names:?}, expected {expected:?}"));
    }
    let (mut requests, mut injected) = (0.0, 0.0);
    for row in &scenarios {
        let name = row_name(row);
        let field = |key: &str| count(row, key).map_err(|e| format!("scenario '{name}': {e}"));
        for key in COUNT_FIELDS {
            field(key)?;
        }
        for key in ["mismatches", "unaccounted"] {
            if field(key)? != 0.0 {
                return Err(format!("scenario '{name}' has nonzero {key} = {}", field(key)?));
            }
        }
        let (req, comp, sheds) = (field("requests")?, field("completions")?, field("sheds")?);
        if comp + sheds != req {
            return Err(format!("scenario '{name}' does not balance: {comp} + {sheds} != {req}"));
        }
        let mut by_reason = 0.0;
        for &(_, section) in SHED_REASONS {
            by_reason += field(&format!("shed_{section}"))?;
        }
        if by_reason != sheds {
            return Err(format!(
                "scenario '{name}': sheds by reason sum to {by_reason}, not {sheds}"
            ));
        }
        requests += req;
        for key in INJECTION_FIELDS {
            injected += field(key)?;
        }
    }
    let n_inputs = count(doc, "n_inputs")?;
    if n_inputs != requests {
        return Err(format!("n_inputs {n_inputs} != per-scenario sum {requests}"));
    }
    let claimed = count(doc, "total_injected")?;
    if claimed != injected {
        return Err(format!("total_injected {claimed} != per-row sum {injected}"));
    }
    if fault && !quick && injected < FULL_INJECTION_FLOOR as f64 {
        return Err(format!(
            "full fault report certifies only {injected} injections \
             (floor {FULL_INJECTION_FLOOR})"
        ));
    }

    if healthy.len() != workload::NUM_FUNCS {
        return Err(format!(
            "expected {} {HEALTHY_PREFIX}<fn> workload rows, found {}",
            workload::NUM_FUNCS,
            healthy.len()
        ));
    }
    for row in &healthy {
        let name = row_name(row);
        for key in ["samples"].iter().chain(ATTRIBUTION_FIELDS) {
            let v = count(row, key).map_err(|e| format!("row '{name}': {e}"))?;
            // The attribution teeth: a full telemetry-on run attributes
            // every workload on every per-request stage.
            if v == 0.0 && telemetry && !quick && *key != "ns_fallback_lane" {
                return Err(format!("full report row '{name}' has no {key} attribution"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value at `path` inside `doc`: object keys, or for an array
    /// the element whose `name` matches.
    fn at<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(doc, |node, key| match node {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
            Json::Arr(items) => items
                .iter_mut()
                .find(|r| r.get("name").and_then(Json::as_str) == Some(key))
                .expect(key),
            _ => panic!("no '{key}' in a scalar"),
        })
    }

    fn stage() -> Json {
        Json::obj()
            .set("count", 10.0)
            .set("sum", 1000.0)
            .set("mean", 100.0)
            .set("p50", 90.0)
            .set("p99", 300.0)
            .set("p999", 400.0)
    }

    /// A scenario row: 100 requests, 90 served, 10 shed on a deadline,
    /// and `injections` kernel faults.
    fn scenario(name: &str, injections: f64) -> Json {
        let mut row = Json::obj()
            .set("name", name)
            .set("requests", 100.0)
            .set("completions", 90.0)
            .set("sheds", 10.0);
        for &(reason, section) in SHED_REASONS {
            let n = if reason == ShedReason::Deadline { 10.0 } else { 0.0 };
            row = row.set(&format!("shed_{section}"), n);
        }
        for key in &COUNT_FIELDS[3..] {
            row = row.set(key, if *key == "kernel_injections" { injections } else { 0.0 });
        }
        row.set("ns_p50", 100.0).set("ns_p99", 900.0).set("ns_p999", 2000.0)
    }

    /// A report every check accepts. A full fault report's seven fault
    /// scenarios each inject 20 000 kernel faults, clearing the floor.
    fn minimal_doc(quick: bool, telemetry: bool, fault: bool) -> Json {
        let mut rows: Vec<Json> = SCENARIOS.iter().map(|n| scenario(n, 0.0)).collect();
        if fault {
            rows.extend(FAULT_SCENARIOS.iter().map(|n| scenario(n, 20_000.0)));
        }
        let (n_inputs, injected) = (100.0 * rows.len() as f64, if fault { 140_000.0 } else { 0.0 });
        rows.extend((0..workload::NUM_FUNCS as u8).map(|f| {
            Json::obj()
                .set("name", format!("{HEALTHY_PREFIX}{}", workload::func_label(f)).as_str())
                .set("ns_p50", 100.0)
                .set("ns_p99", 900.0)
                .set("ns_p999", 2000.0)
                .set("samples", 5.0)
                .set("ns_queue_mean", 120.0)
                .set("ns_batch_mean", 80.0)
                .set("ns_kernel_lane", 11.0)
                .set("ns_fallback_lane", 0.5)
        }));
        let items = |n: usize| {
            Json::Arr(
                (0..n).map(|i| Json::obj().set("func", "ln").set("x_bits", i as f64)).collect(),
            )
        };
        let mut exemplars = Json::obj();
        for &(_, section) in SHED_REASONS {
            exemplars = exemplars.set(section, items(1));
        }
        Json::obj()
            .set("schema", SCHEMA)
            .set("quick", quick)
            .set("telemetry", telemetry)
            .set("fault", fault)
            .set("sample_shift", 4.0)
            .set("n_inputs", n_inputs)
            .set("total_injected", injected)
            .set("stage_quantiles", STAGES.iter().fold(Json::obj(), |q, s| q.set(s, stage())))
            .set(
                "flight",
                Json::obj()
                    .set("dumps", 2.0)
                    .set("panic_dumps", 1.0)
                    .set("corruption_dumps", 1.0)
                    .set("events", 300.0),
            )
            .set("exemplars", exemplars.set("rescalar", items(2)).set("slowest", items(3)))
            .set("functions", rows)
    }

    fn rejects(doc: &Json, needle: &str) {
        let err = check_serve_report(doc).expect_err(needle);
        assert!(err.contains(needle), "expected '{needle}' in: {err}");
    }

    #[test]
    fn accepts_complete_reports() {
        for (quick, telemetry, fault) in
            [(false, true, true), (false, true, false), (true, true, true), (true, false, false)]
        {
            assert_eq!(check_serve_report(&minimal_doc(quick, telemetry, fault)), Ok(()));
        }
    }

    #[test]
    fn rejects_an_unbalanced_scenario() {
        let mut doc = minimal_doc(true, true, false);
        *at(&mut doc, &["functions", "drain", "completions"]) = Json::Num(89.0);
        rejects(&doc, "does not balance");
    }

    #[test]
    fn rejects_sheds_that_no_reason_accounts_for() {
        let mut doc = minimal_doc(true, true, false);
        *at(&mut doc, &["functions", "deadline", "shed_deadline"]) = Json::Num(9.0);
        rejects(&doc, "sheds by reason");
    }

    #[test]
    fn rejects_mismatches_and_unaccounted_requests() {
        for key in ["mismatches", "unaccounted"] {
            let mut doc = minimal_doc(true, true, false);
            *at(&mut doc, &["functions", "healthy", key]) = Json::Num(1.0);
            rejects(&doc, &format!("nonzero {key}"));
        }
    }

    #[test]
    fn rejects_a_wrong_injection_total() {
        let mut doc = minimal_doc(true, true, true);
        *at(&mut doc, &["functions", "corruption", "corruptions"]) = Json::Num(7.0);
        rejects(&doc, "total_injected");
    }

    #[test]
    fn rejects_a_wrong_request_total() {
        let mut doc = minimal_doc(true, true, false);
        *at(&mut doc, &["n_inputs"]) = Json::Num(401.0);
        rejects(&doc, "n_inputs");
    }

    #[test]
    fn full_fault_reports_must_clear_the_injection_floor() {
        let mut doc = minimal_doc(false, true, true);
        *at(&mut doc, &["functions", "kernel_faults", "kernel_injections"]) = Json::Num(0.0);
        *at(&mut doc, &["total_injected"]) = Json::Num(120_000.0);
        assert_eq!(check_serve_report(&doc), Ok(()));
        for (row, total) in [("corruption", 100_000.0), ("backpressure", 80_000.0)] {
            *at(&mut doc, &["functions", row, "kernel_injections"]) = Json::Num(0.0);
            *at(&mut doc, &["total_injected"]) = Json::Num(total);
        }
        rejects(&doc, "floor");
        // A quick smoke certifies no floor.
        *at(&mut doc, &["quick"]) = Json::Bool(true);
        assert_eq!(check_serve_report(&doc), Ok(()));
    }

    #[test]
    fn scenario_rows_must_match_the_build_table() {
        let mut doc = minimal_doc(true, true, false);
        *at(&mut doc, &["functions", "drain", "name"]) = Json::from("drain_2");
        rejects(&doc, "scenario rows");
        // A fault report must carry the fault scenarios.
        let mut doc = minimal_doc(true, false, false);
        *at(&mut doc, &["fault"]) = Json::Bool(true);
        rejects(&doc, "scenario rows");
    }

    #[test]
    fn full_reports_must_attribute_every_workload() {
        let mut doc = minimal_doc(false, true, true);
        *at(&mut doc, &["functions", "healthy.ln", "ns_kernel_lane"]) = Json::Num(0.0);
        rejects(&doc, "ns_kernel_lane");
        // The same zero passes on a quick smoke.
        *at(&mut doc, &["quick"]) = Json::Bool(true);
        assert_eq!(check_serve_report(&doc), Ok(()));
    }

    #[test]
    fn fault_reports_require_every_shed_exemplar() {
        let mut doc = minimal_doc(true, true, true);
        *at(&mut doc, &["exemplars", "poisoned"]) = Json::Arr(Vec::new());
        rejects(&doc, "poisoned");
    }

    #[test]
    fn full_fault_reports_require_a_flight_dump() {
        let mut doc = minimal_doc(false, true, true);
        *at(&mut doc, &["flight", "dumps"]) = Json::Num(0.0);
        rejects(&doc, "flight dumps");
        // No chaos ran without the fault feature, so nothing dumps.
        let mut doc = minimal_doc(false, true, false);
        *at(&mut doc, &["flight", "dumps"]) = Json::Num(0.0);
        assert_eq!(check_serve_report(&doc), Ok(()));
    }

    #[test]
    fn healthy_rows_must_cover_the_workload_matrix() {
        let mut doc = minimal_doc(true, false, false);
        if let Json::Arr(rows) = at(&mut doc, &["functions"]) {
            rows.pop();
        }
        rejects(&doc, "workload rows");
    }
}
