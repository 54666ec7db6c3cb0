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
//! | Figure 3 (float speedups)    | `fig3`   | `BENCH_fig3.json` |
//! | Figure 4 (posit32 speedups)  | `fig4`   | `BENCH_fig4.json` |
//! | Figure 5 (sub-domain sweep)  | `fig5`   | — |
//! | §4.3 vectorization harness   | `vector_harness` | `BENCH_vector.json` |
//! | Telemetry snapshot           | `telemetry_report` | `TELEM_report.json` |
//! | Trace latency attribution    | `trace_report` | `TRACE_report.json` |
//! | Bench regression diff        | `bench_compare` | — (reads two BENCH files) |
//!
//! The timing harnesses (`fig3`, `fig4`, `vector_harness`) measure the
//! two-tier runtime three ways per function — the plain-double fast
//! path, the pure double-double kernel, and the batched
//! `eval_slice_*` path — alongside the baselines, and report observed
//! dd-fallback rates (this crate builds `rlibm-math` with the
//! `telemetry` feature, whose `runtime.tier.dd.*` counters count them).
//! Each accepts `--quick` (small
//! CI-smoke workload, used by `ci.sh`) and `--out PATH`. Emitted
//! documents use the hand-rolled [`json`] module (the workspace has no
//! registry dependencies): schema-tagged (`rlibm-bench/fig3/v1`, ...),
//! re-parsed and schema-checked by the harness itself before exit.

pub mod json;
pub mod sweep;
pub mod telem;
pub mod timing;
pub mod trace;
pub mod workloads;
