//! The repository benchmark: times the rlibm-rs stack from outside,
//! through each layer's public API, built the way users build it (the
//! `simd` slice kernels on, telemetry off).
//!
//! One binary plays two roles. Run plainly it is the *harness*
//! ([`harness`]): for each workload it re-executes itself as a child
//! process, relays the child's metric lines, and prints one JSON result
//! line. Run with `--child` it measures one workload in-process
//! ([`child`]). See `README.md` for the workloads, the metrics and what
//! each one should move.

pub mod call;
pub mod certify;
pub mod child;
pub mod generate;
pub mod harness;
pub mod host;
pub mod inputs;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 7] = [
    "call_f32",
    "slice_f32",
    "call_posit32",
    "slice_posit32",
    "serve_mixed",
    "certify_sweep",
    "generate",
];

/// An f32 result's bit pattern with every NaN as the quiet NaN: NaN
/// payloads are don't-cares in the library's contract.
pub fn f32_bits(y: f32) -> u32 {
    if y.is_nan() {
        0x7FC0_0000
    } else {
        y.to_bits()
    }
}

/// The oracle's name for one of the paper's functions.
pub fn oracle_func(name: &str) -> Result<rlibm_mp::Func, String> {
    rlibm_mp::Func::ALL
        .into_iter()
        .find(|f| f.name() == name)
        .ok_or_else(|| format!("the oracle has no function {name}"))
}
