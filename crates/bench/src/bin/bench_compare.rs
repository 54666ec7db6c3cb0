//! Diffs two `BENCH_*.json` documents from the same harness and fails
//! on timing regressions — the guard that keeps the committed full-run
//! BENCH files honest as the kernels evolve.
//!
//! Both documents must carry the same `schema` tag, exactly (comparing
//! a timing run against a serve run is a usage error, exit 2). Every `ns_*`
//! field present in both files is compared per function as the ratio
//! `new / old`; a ratio above `1 + threshold` on any field is a
//! regression (exit 1). The summary prints the geometric-mean ratio
//! per field across functions, so broad drift shows up even when no
//! single function trips the threshold. Timing noise is real: the
//! default threshold is 25%, generous enough for run-to-run jitter on
//! a shared machine, tight enough to catch an accidental fast-path
//! pessimisation (the two-tier split is worth ~2x).
//!
//! `--fields PREFIX` compares the numeric fields starting with `PREFIX`
//! instead of `ns_`: `--fields ratio_` gates a timing document on its
//! same-host `ratio_batched` fields, which a uniformly loaded host leaves
//! alone where it inflates every absolute time.
//!
//! Diffing a file against itself always passes with all-1.0 ratios —
//! ci.sh uses that as a smoke test of the comparator itself.
//!
//! Usage: `cargo run -p rlibm-bench --release --bin bench_compare -- \
//!             OLD.json NEW.json [--threshold PCT] [--fields PREFIX]`

use rlibm_bench::json::{parse, Json};
use rlibm_bench::timing::geomean;

/// BENCH document schemas this comparator understands. A tag outside
/// this list is a usage error (exit 2): it would mean diffing documents
/// no harness in this workspace emits, so the "same schema" check can't
/// vouch that the ns_* fields mean the same thing in both files.
const KNOWN_SCHEMAS: &[&str] = &[
    "rlibm-bench/timing/v1",
    "rlibm-bench/gen/v1",
    // serve_report rows are scenarios plus the healthy scenario's
    // per-function rows; only the latter carry the ns_* attribution.
    "rlibm-bench/serve/v2",
];

struct Cli {
    old: String,
    new: String,
    /// Regression threshold as a fraction (0.25 = +25%).
    threshold: f64,
    /// Prefix of the compared per-function fields.
    fields: String,
}

fn parse_cli() -> Cli {
    let mut paths = Vec::new();
    let mut threshold = 0.25;
    let mut fields = "ns_".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threshold" => {
                let pct: f64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--threshold requires a percentage"));
                threshold = pct / 100.0;
            }
            "--fields" => {
                fields = args.next().unwrap_or_else(|| usage("--fields requires a prefix"));
            }
            other => paths.push(other.to_string()),
        }
    }
    if paths.len() != 2 {
        usage("expected exactly two BENCH json paths");
    }
    let new = paths.pop().expect("len checked");
    let old = paths.pop().expect("len checked");
    Cli { old, new, threshold, fields }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: bench_compare OLD.json NEW.json [--threshold PCT] [--fields PREFIX]");
    std::process::exit(2);
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    parse(&text).unwrap_or_else(|e| usage(&format!("{path}: invalid JSON: {e}")))
}

/// The per-function entries as (name, object) pairs, insertion order.
fn functions(doc: &Json, path: &str) -> Vec<(String, Json)> {
    let funcs = doc
        .get("functions")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| usage(&format!("{path}: missing 'functions' array")));
    funcs
        .iter()
        .map(|f| {
            let name = f
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_else(|| usage(&format!("{path}: function entry missing 'name'")));
            (name.to_string(), f.clone())
        })
        .collect()
}

/// The numeric fields of a function entry whose names start with
/// `prefix`, insertion order.
fn prefixed_fields(entry: &Json, prefix: &str) -> Vec<String> {
    match entry {
        Json::Obj(fields) => fields
            .iter()
            .filter(|(k, v)| k.starts_with(prefix) && v.as_num().is_some())
            .map(|(k, _)| k.clone())
            .collect(),
        _ => Vec::new(),
    }
}

fn main() {
    let cli = parse_cli();
    let old_doc = load(&cli.old);
    let new_doc = load(&cli.new);

    let old_schema = old_doc
        .get("schema")
        .and_then(Json::as_str)
        .unwrap_or_else(|| usage(&format!("{}: missing 'schema' tag", cli.old)));
    let new_schema = new_doc
        .get("schema")
        .and_then(Json::as_str)
        .unwrap_or_else(|| usage(&format!("{}: missing 'schema' tag", cli.new)));
    if old_schema != new_schema {
        usage(&format!(
            "schema mismatch: {} is '{old_schema}', {} is '{new_schema}'",
            cli.old, cli.new
        ));
    }
    for (schema, path) in [(old_schema, &cli.old), (new_schema, &cli.new)] {
        if !KNOWN_SCHEMAS.contains(&schema) {
            usage(&format!(
                "{path}: unknown schema '{schema}' (known: {})",
                KNOWN_SCHEMAS.join(", ")
            ));
        }
    }

    let old_fns = functions(&old_doc, &cli.old);
    let new_fns = functions(&new_doc, &cli.new);
    // Fields some entry of each file carries: rows may differ in their
    // fields, and a harness that grew a new measurement still diffs
    // cleanly against an older emission.
    let mut fields: Vec<String> = Vec::new();
    for (_, e) in &old_fns {
        for f in prefixed_fields(e, &cli.fields) {
            if !fields.contains(&f) && new_fns.iter().any(|(_, n)| n.get(&f).is_some()) {
                fields.push(f);
            }
        }
    }
    if fields.is_empty() {
        usage(&format!("no shared {}* fields to compare", cli.fields));
    }

    println!(
        "bench_compare: {} -> {} (schema {old_schema}, threshold +{:.0}%)\n",
        cli.old,
        cli.new,
        cli.threshold * 100.0
    );
    let mut regressions = Vec::new();
    let mut ratios_by_field: Vec<(String, Vec<f64>)> =
        fields.iter().map(|f| (f.clone(), Vec::new())).collect();
    for (name, old_entry) in &old_fns {
        let Some((_, new_entry)) = new_fns.iter().find(|(n, _)| n == name) else {
            println!("  {name}: only in {} — skipped", cli.old);
            continue;
        };
        for (field, ratios) in &mut ratios_by_field {
            let (Some(old_v), Some(new_v)) = (
                old_entry.get(field).and_then(Json::as_num),
                new_entry.get(field).and_then(Json::as_num),
            ) else {
                continue;
            };
            if old_v <= 0.0 {
                continue;
            }
            let ratio = new_v / old_v;
            ratios.push(ratio);
            if ratio > 1.0 + cli.threshold {
                regressions.push(format!(
                    "{name}.{field}: {old_v:.2} -> {new_v:.2} ({:+.1}%)",
                    (ratio - 1.0) * 100.0
                ));
            }
        }
    }
    for (name, _) in &new_fns {
        if !old_fns.iter().any(|(n, _)| n == name) {
            println!("  {name}: only in {} — skipped", cli.new);
        }
    }

    println!("{:>16} | {:>13} | {:>9}", "field", "geomean ratio", "delta");
    println!("{}", "-".repeat(44));
    for (field, ratios) in &ratios_by_field {
        if ratios.is_empty() {
            continue;
        }
        let g = geomean(ratios);
        println!("{:>16} | {:>13.4} | {:>+8.1}%", field, g, (g - 1.0) * 100.0);
    }

    // Table-footprint delta, printed whenever both documents carry a
    // "tables" size section (informational: smaller is better, but a
    // growth here is a review prompt, not a regression exit).
    if let (Some(Json::Obj(old_t)), Some(Json::Obj(new_t))) =
        (old_doc.get("tables"), new_doc.get("tables"))
    {
        let mut printed_header = false;
        for (field, old_v) in old_t {
            let (Some(old_b), Some(new_b)) = (
                old_v.as_num(),
                new_t.iter().find(|(k, _)| k == field).and_then(|(_, v)| v.as_num()),
            ) else {
                continue;
            };
            if old_b <= 0.0 {
                continue;
            }
            if !printed_header {
                println!("\ntable bytes:");
                printed_header = true;
            }
            println!(
                "  {field}: {old_b:.0} -> {new_b:.0} ({:+.1}%)",
                (new_b / old_b - 1.0) * 100.0
            );
        }
    }

    if regressions.is_empty() {
        println!("\nOK: no per-function regression above +{:.0}%", cli.threshold * 100.0);
    } else {
        eprintln!("\nFAIL: {} regression(s) above +{:.0}%:", regressions.len(), cli.threshold * 100.0);
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
}
