//! Serialization of [`rlibm_obs::TelemetrySnapshot`] to the
//! machine-readable `TELEM_*.json` document (schema `rlibm-telem/v1`).
//!
//! The document has three sections mirroring the snapshot: a flat
//! `counters` object (name → value, name-sorted and diff-friendly), and
//! `histograms` / `spans` arrays whose entries carry `name`, `count`,
//! `sum` and the nonzero log2 `buckets` as `[bucket, count]` pairs.
//! Span entries are histograms of elapsed nanoseconds, so their `sum`
//! is total time spent inside the span.
//!
//! Like the `BENCH_*.json` emitters, `telemetry_report` writes through
//! [`crate::json::write_validated`] with [`check_telem_schema`], so a
//! malformed emission fails at generation time, not at first
//! consumption.

use crate::json::Json;
use rlibm_obs::{HistogramSnapshot, TelemetrySnapshot};

/// Schema tag carried by every telemetry document.
pub const TELEM_SCHEMA: &str = "rlibm-telem/v1";

fn histograms_to_json(hs: &[HistogramSnapshot]) -> Json {
    Json::Arr(
        hs.iter()
            .map(|h| {
                let buckets: Vec<Json> = h
                    .buckets
                    .iter()
                    .map(|&(b, n)| {
                        Json::Arr(vec![Json::Num(f64::from(b)), Json::Num(n as f64)])
                    })
                    .collect();
                Json::obj()
                    .set("name", h.name)
                    .set("count", h.count as f64)
                    .set("sum", h.sum as f64)
                    .set("buckets", buckets)
            })
            .collect(),
    )
}

/// Serializes a snapshot (plus run metadata) to a telemetry document.
pub fn telem_to_json(snap: &TelemetrySnapshot, quick: bool, seed: u64) -> Json {
    let counters = snap
        .counters
        .iter()
        .fold(Json::obj(), |o, c| o.set(c.name, c.value as f64));
    Json::obj()
        .set("schema", TELEM_SCHEMA)
        .set("quick", quick)
        .set("seed", seed as f64)
        .set("counters", counters)
        .set("histograms", histograms_to_json(&snap.histograms))
        .set("spans", histograms_to_json(&snap.spans))
}

fn check_histogram_section(doc: &Json, section: &str) -> Result<(), String> {
    let entries = doc
        .get(section)
        .and_then(Json::as_arr)
        .ok_or(format!("missing '{section}' array"))?;
    for h in entries {
        let name = h
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("{section} entry missing 'name'"))?;
        let count = h
            .get("count")
            .and_then(Json::as_num)
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or(format!("{section} '{name}' missing numeric 'count'"))?;
        h.get("sum")
            .and_then(Json::as_num)
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or(format!("{section} '{name}' missing numeric 'sum'"))?;
        let buckets = h
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or(format!("{section} '{name}' missing 'buckets'"))?;
        let mut bucket_total = 0.0;
        for b in buckets {
            let pair = b
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or(format!("{section} '{name}': bucket is not a [bucket, count] pair"))?;
            bucket_total += pair[1]
                .as_num()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or(format!("{section} '{name}': non-numeric bucket count"))?;
        }
        if bucket_total != count {
            return Err(format!(
                "{section} '{name}': bucket counts sum to {bucket_total}, 'count' says {count}"
            ));
        }
    }
    Ok(())
}

/// Validates a telemetry document: the schema tag, a `counters` object
/// of finite non-negative numbers, and internally consistent
/// `histograms` / `spans` sections. Returns the first violation.
pub fn check_telem_schema(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing 'schema' tag")?;
    if schema != TELEM_SCHEMA {
        return Err(format!("schema '{schema}', expected '{TELEM_SCHEMA}'"));
    }
    match doc.get("counters") {
        Some(Json::Obj(fields)) => {
            for (name, v) in fields {
                v.as_num()
                    .filter(|x| x.is_finite() && *x >= 0.0)
                    .ok_or(format!("counter '{name}' is not a finite non-negative number"))?;
            }
        }
        _ => return Err("missing 'counters' object".to_string()),
    }
    check_histogram_section(doc, "histograms")?;
    check_histogram_section(doc, "spans")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use rlibm_obs::{CounterSnapshot, HistogramSnapshot};

    fn sample_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: vec![
                CounterSnapshot { name: "lp.exact.solves", value: 7 },
                CounterSnapshot { name: "runtime.tier.dd.f32.exp", value: 0 },
            ],
            histograms: vec![HistogramSnapshot {
                name: "oracle.ziv.final_prec.ln",
                count: 3,
                sum: 384,
                buckets: vec![(8, 3)],
            }],
            spans: vec![HistogramSnapshot {
                name: "pipeline.generate",
                count: 1,
                sum: 1_500_000,
                buckets: vec![(21, 1)],
            }],
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let doc = telem_to_json(&sample_snapshot(), true, 42);
        let parsed = parse(&doc.to_pretty()).expect("valid JSON");
        assert_eq!(parsed, doc);
        assert!(check_telem_schema(&parsed).is_ok());
        let counters = parsed.get("counters").expect("counters");
        assert_eq!(counters.get("lp.exact.solves").and_then(Json::as_num), Some(7.0));
        // Zero-valued counters stay present: "observed zero" is data.
        assert_eq!(
            counters.get("runtime.tier.dd.f32.exp").and_then(Json::as_num),
            Some(0.0)
        );
    }

    #[test]
    fn schema_check_catches_violations() {
        let good = telem_to_json(&sample_snapshot(), false, 1);
        assert!(check_telem_schema(&good).is_ok());

        let wrong_tag = Json::obj().set("schema", "rlibm-bench/timing/v1");
        assert!(check_telem_schema(&wrong_tag).is_err());

        let no_counters = Json::obj()
            .set("schema", TELEM_SCHEMA)
            .set("histograms", Vec::new())
            .set("spans", Vec::new());
        assert!(check_telem_schema(&no_counters).is_err());

        // Bucket counts must reconcile with the histogram's total count.
        let inconsistent = Json::obj()
            .set("schema", TELEM_SCHEMA)
            .set("counters", Json::obj())
            .set(
                "histograms",
                vec![Json::obj()
                    .set("name", "h")
                    .set("count", 5.0)
                    .set("sum", 10.0)
                    .set("buckets", vec![Json::Arr(vec![Json::Num(2.0), Json::Num(3.0)])])],
            )
            .set("spans", Vec::new());
        assert!(check_telem_schema(&inconsistent).is_err());
    }
}
