//! Evaluation harnesses for the RLIBM-32 reproduction.
//!
//! Each table and figure of the paper's evaluation (Section 4) has a
//! regenerating binary in `src/bin/`; the timing harnesses additionally
//! emit machine-readable JSON results:
//!
//! | Paper artifact | Binary | JSON emission |
//! |---|---|---|
//! | Table 1 (float correctness)  | `table1` | — |
//! | Table 2 (posit32 correctness)| `table2` | — |
//! | Table 3 (generator stats)    | `table3` | — |
//! | Figures 3–5, §4.3 harness  | `timing` | `BENCH_timing.json` |
//! | Generator cost               | `gen_bench` | `BENCH_gen.json` |
//! | Certification sweep          | `certify` | `CERT_manifest.json` |
//! | Telemetry snapshot           | `telemetry_report` | `TELEM_report.json` |
//! | Serving scenarios (throughput, attribution, chaos) | `serve_report` | `BENCH_serve.json` |
//! | Bench regression diff        | `bench_compare` | — (reads two BENCH files) |
//!
//! The `timing` harness measures the two-tier runtime three ways per
//! (format, function) row — the shipping scalar call, the pure
//! double-double kernel, and the batched `eval_slice_*` path — alongside
//! the baselines, on one array of 1024 inputs, and reports observed
//! dd-fallback rates (this crate builds `rlibm-math` with the
//! `telemetry` feature, whose `runtime.tier.dd.*` counters count them).
//! Like the other emitting harnesses it accepts `--quick` (small
//! CI-smoke workload, used by `ci.sh`) and `--out PATH`. Emitted
//! documents use the hand-rolled [`json`] module (the workspace has no
//! registry dependencies): schema-tagged (`rlibm-bench/timing/v1`, ...),
//! re-parsed and schema-checked by the harness itself before exit.

pub mod json;
pub mod sweep;
pub mod serve;
pub mod telem;
pub mod timing;
pub mod workloads;
