//! The function registry: one row per (kind, function), and every
//! per-function list in the crate generated from it.
//!
//! The table at the bottom of this module holds ten f32 rows in the
//! paper's Table 1 order, then eight posit32 rows in Table 2 order. A
//! row's index is its counter slot ([`slot`]) and its fault-injection
//! site. Each row names:
//!
//! * its public scalar entry point;
//! * its kernel ([`crate::kernel`]): one type carrying the kernel's math
//!   for every lane, its [`Rung`] (Horner terms, band and derived bound),
//!   its dd kernel, and the function's special-case front end for every
//!   format ([`crate::front`]);
//! * for f32 the float baseline.
//!
//! From the rows the `registry!` macro generates the [`slot`] constants,
//! [`F32_NAMES`] / [`POSIT32_NAMES`], the tier specs ([`TIERS`]), the
//! `runtime.tier.*` counters behind [`crate::stats`], the dispatch rows
//! behind the crate's `*_by_name` functions and `eval_slice_*` entries,
//! one inlined fast `entry` per row (the public entry point's body), the
//! batched entries, and the dd references: each row's `dd` and, for the
//! posit rows, the posit16 / binary16 / bfloat16 functions of the same
//! name are the kernel's front end and dd kernel at that format
//! ([`crate::front::reference`]). Adding a function means writing its
//! kernel and its front end, a one-line public entry point, and a row
//! here; a new format is one [`crate::front::Format`] impl. Nothing else
//! keeps a per-function list.
//!
//! # Two steps
//!
//! After its front end, every scalar entry point takes Ziv's two steps:
//! the kernel's plain-double polynomial tested against its round-safety
//! band, then, for the values the band rejects, the dd kernel with
//! round-to-odd. Soundness: a value that passes the band while the
//! kernel is within `derived` of the dd kernel rounds identically to the
//! dd result. The fault hook nudges kernel results by at most
//! `band - derived`, which keeps them inside the band.

use rlibm_fp::{BFloat16, Half};
use rlibm_obs::Counter;
use rlibm_posit::{Posit16, Posit32};

use crate::float::{exp as fexp, hyper, log, trig};
use crate::front::{reference, Format, Front};
use crate::kernel::{self, Kernel};
use crate::slice::Tally;
use crate::stats::TierCounters;
use crate::{baselines::float32 as base, posit, slice};

/// A kernel's fast step, in `2^-53` relative units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// Terms the kernel's Horner chain evaluates.
    pub terms: usize,
    /// Round-safety band the kernel's result is tested against (28-bit
    /// frac distance).
    pub band: u64,
    /// Certified bound on |kernel result − dd kernel|.
    pub derived: u64,
}

/// One row's fast step: its kernel's rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Row name, matching the suffix of the `runtime.tier.*` counters
    /// (e.g. `"f32.exp"`).
    pub name: &'static str,
    /// The kernel's rung.
    pub rung: Rung,
}

impl TierSpec {
    /// Looks a spec up by its name (`"f32.exp"`, `"posit32.ln"`).
    pub fn by_name(name: &str) -> Option<&'static TierSpec> {
        TIERS.iter().find(|t| t.name == name)
    }
}

/// An f32 row's entry points.
#[derive(Debug, Clone, Copy)]
pub struct F32Row {
    /// Paper-table name.
    pub name: &'static str,
    /// The correctly rounded entry point.
    pub scalar: fn(f32) -> f32,
    /// The dd-only reference entry point.
    pub dd: fn(f32) -> f32,
    /// The batched entry point, bit-identical to mapping `scalar`.
    pub slice: fn(&[f32], &mut [f32]),
    /// The float32 baseline model.
    pub baseline: fn(f32) -> f32,
}

impl F32Row {
    /// The row for a paper-table name.
    pub fn by_name(name: &str) -> Option<&'static F32Row> {
        F32_ROWS.iter().find(|r| r.name == name)
    }
}

/// A posit32 row's entry points.
#[derive(Debug, Clone, Copy)]
pub struct Posit32Row {
    /// Paper-table name.
    pub name: &'static str,
    /// The correctly rounded entry point.
    pub scalar: fn(Posit32) -> Posit32,
    /// The dd-only reference entry point.
    pub dd: fn(Posit32) -> Posit32,
    /// The batched entry (reached through
    /// [`crate::eval_slice_posit32`], which also counts the requests).
    pub(crate) slice: fn(&[Posit32], &mut [Posit32]),
    /// The posit16 function of the same name.
    pub p16: fn(Posit16) -> Posit16,
    /// The binary16 function of the same name.
    pub half: fn(Half) -> Half,
    /// The bfloat16 function of the same name.
    pub bf16: fn(BFloat16) -> BFloat16,
}

impl Posit32Row {
    /// The row for a paper-table name.
    pub fn by_name(name: &str) -> Option<&'static Posit32Row> {
        POSIT32_ROWS.iter().find(|r| r.name == name)
    }
}

/// A 32-bit format the scalar entries and the batched driver round into.
/// Every kernel evaluates in f64 whatever the format, so a format only
/// supplies its exact widening and correctly rounding narrowing and its
/// front-end cuts ([`Format`]), its round-safety test fused with the narrowing it
/// certifies, and the counters its slices land in.
pub(crate) trait Lane: Format {
    /// Filler for a partial chunk's unused lanes (never read back).
    const PAD: Self;
    /// The narrowing of `y` when it is the correct rounding of every
    /// value within `band · 2^-53` relative of `y`, else `None` (see
    /// [`crate::round`]).
    fn narrow_if_safe(y: f64, band: u64) -> Option<Self>;
    /// This format's `(chunks, rescalar lanes)` slice counters.
    fn counters() -> (&'static Counter, &'static Counter);
}

impl Lane for f32 {
    const PAD: f32 = 1.0;

    #[inline(always)]
    fn narrow_if_safe(y: f64, band: u64) -> Option<f32> {
        crate::round::f32_round_safe(y, band).then_some(y as f32)
    }

    fn counters() -> (&'static Counter, &'static Counter) {
        (&slice::SLICE_CHUNKS, &slice::SLICE_RESCALAR)
    }
}

impl Lane for Posit32 {
    const PAD: Posit32 = Posit32::ONE;

    #[inline(always)]
    fn narrow_if_safe(y: f64, band: u64) -> Option<Posit32> {
        crate::round::posit32_safe_narrow(y, band)
    }

    fn counters() -> (&'static Counter, &'static Counter) {
        (&slice::SLICE_POSIT_CHUNKS, &slice::SLICE_POSIT_RESCALAR)
    }
}

/// The fast scalar entry of kernel `K` in format `L`, registry row
/// `slot`: the front end ([`Front::fast_front`], with the fast-only
/// shortcuts), then the kernel. Its result (through the fault hook of
/// `slot`) ships if it is round-safe under the kernel's band, else the dd
/// kernel's round-to-odd composition does. Each outcome bumps its tier
/// counter.
#[inline(always)]
pub(crate) fn entry<L: Lane, K: Kernel + Front<L>>(slot: usize, x: L) -> L {
    let xd = match K::fast_front(x) {
        Ok(xd) => xd,
        Err(special) => return special,
    };
    let y = crate::fault::perturb(slot, K::eval::<f64>(xd));
    if let Some(r) = L::narrow_if_safe(y, K::RUNG.band) {
        crate::stats::record_tier_prefix(slot);
        return r;
    }
    escalate::<L, K>(slot, xd)
}

/// The dd rung, out of line: under 0.1% of calls get here, and inlining
/// the rare path into every entry point measured slower fast paths
/// (`float.sinpi.ns` +25% in the benchmark's `call_f32`).
#[cold]
#[inline(never)]
fn escalate<L: Lane, K: Kernel>(slot: usize, xd: f64) -> L {
    crate::stats::record_tier_dd(slot);
    crate::round::round_dd(K::dd(xd))
}

macro_rules! tier_counters {
    ($kind:literal, $name:ident) => {
        TierCounters::new(
            concat!("runtime.tier.prefix.", $kind, ".", stringify!($name)),
            concat!("runtime.tier.dd.", $kind, ".", stringify!($name)),
        )
    };
}

macro_rules! registry {
    (
        f32 {$(
            $f:ident => $fs:ident {
                entry: $fentry:path, kernel: $fk:ty, baseline: $fbase:path $(,)?
            }
        )*}
        posit32 {$(
            $p:ident => $ps:ident { entry: $pentry:path, kernel: $pk:ty $(,)? }
        )*}
    ) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Slot { $($fs,)* $($ps,)* COUNT }

        /// One counter and fault-site slot per row: the f32 rows in
        /// Table 1 order, then the posit32 rows.
        pub mod slot {
            $(
                #[doc = concat!("f32 `", stringify!($f), "`.")]
                pub const $fs: usize = super::Slot::$fs as usize;
            )*
            $(
                #[doc = concat!("posit32 `", stringify!($p), "`.")]
                pub const $ps: usize = super::Slot::$ps as usize;
            )*
            /// Number of slots.
            pub const COUNT: usize = super::Slot::COUNT as usize;
        }

        const F32_COUNT: usize = [$(stringify!($f)),*].len();

        /// The f32 function names, in Table 1 (slot) order.
        pub const F32_NAMES: [&str; F32_COUNT] = [$(stringify!($f)),*];

        /// The posit32 function names, in Table 2 (slot) order.
        pub const POSIT32_NAMES: [&str; slot::COUNT - F32_COUNT] = [$(stringify!($p)),*];

        /// Every row's fast step, indexed by [`slot`].
        pub static TIERS: [TierSpec; slot::COUNT] = [
            $(TierSpec {
                name: concat!("f32.", stringify!($f)),
                rung: <$fk>::RUNG,
            },)*
            $(TierSpec {
                name: concat!("posit32.", stringify!($p)),
                rung: <$pk>::RUNG,
            },)*
        ];

        /// The `runtime.tier.{prefix,dd}.<kind>.<fn>` counters,
        /// indexed by [`slot`].
        pub(crate) static TIER_COUNTERS: [TierCounters; slot::COUNT] = [
            $(tier_counters!("f32", $f),)*
            $(tier_counters!("posit32", $p),)*
        ];

        /// The f32 rows, in slot order.
        pub static F32_ROWS: [F32Row; F32_COUNT] = [$(F32Row {
            name: stringify!($f),
            scalar: $fentry,
            dd: reference::<f32, $fk>,
            slice: |xs, out| {
                f32_batched::$f(xs, out, true);
            },
            baseline: $fbase,
        },)*];

        /// The posit32 rows, in slot order (slot = index + 10).
        pub static POSIT32_ROWS: [Posit32Row; slot::COUNT - F32_COUNT] = [$(Posit32Row {
            name: stringify!($p),
            scalar: $pentry,
            dd: reference::<Posit32, $pk>,
            slice: |xs, out| {
                posit32_batched::$p(xs, out, true);
            },
            p16: reference::<Posit16, $pk>,
            half: reference::<Half, $pk>,
            bf16: reference::<BFloat16, $pk>,
        },)*];

        /// The f32 rows' fast entries, behind the public entry points.
        pub(crate) mod f32_entry {
            use super::*;
            $(
                #[inline(always)]
                pub(crate) fn $f(x: f32) -> f32 {
                    entry::<f32, $fk>(slot::$fs, x)
                }
            )*
        }

        /// The posit32 rows' fast entries.
        pub(crate) mod posit32_entry {
            use super::*;
            $(
                #[inline(always)]
                pub(crate) fn $p(x: Posit32) -> Posit32 {
                    entry::<Posit32, $pk>(slot::$ps, x)
                }
            )*
        }

        /// The f32 rows' batched entries: the batched driver over the
        /// row's kernel and front end, on the widest lane the CPU runs when
        /// `widest` is set and on `f64` otherwise; the scalar entry
        /// resolves special and band-rejected lanes.
        mod f32_batched {
            use super::*;
            $(
                pub(super) fn $f(xs: &[f32], out: &mut [f32], widest: bool) -> Tally {
                    slice::dispatch::<f32, $fk>(xs, out, slot::$fs, $fentry, widest)
                }
            )*
        }

        /// The posit32 rows' batched entries (see `f32_batched`).
        mod posit32_batched {
            use super::*;
            $(
                pub(super) fn $p(xs: &[Posit32], out: &mut [Posit32], widest: bool) -> Tally {
                    slice::dispatch::<Posit32, $pk>(xs, out, slot::$ps, $pentry, widest)
                }
            )*
        }

        /// Every f32 row's batched entry with its lane choice, in slot
        /// order, for the lane-agreement tests.
        #[cfg(all(test, feature = "simd", target_arch = "x86_64"))]
        pub(crate) static F32_BATCHED: [fn(&[f32], &mut [f32], bool) -> Tally; F32_COUNT] =
            [$(f32_batched::$f,)*];

        /// Every posit32 row's batched entry with its lane choice.
        #[cfg(all(test, feature = "simd", target_arch = "x86_64"))]
        pub(crate) static POSIT32_BATCHED:
            [fn(&[Posit32], &mut [Posit32], bool) -> Tally; slot::COUNT - F32_COUNT] =
            [$(posit32_batched::$p,)*];
    };
}

// Each row names its public entry point and its kernel, whose rung
// carries the band, derived bound and term count (derived in
// `crate::kernel`) and whose front end (`crate::front`) filters the
// specials for every format. The posit rows run their f32 twins'
// kernels: the band bounds the kernel's error, not the target's
// rounding.
registry! {
    f32 {
        ln => LN { entry: log::ln, kernel: kernel::Ln, baseline: base::ln }
        log2 => LOG2 { entry: log::log2, kernel: kernel::Log2, baseline: base::log2 }
        log10 => LOG10 { entry: log::log10, kernel: kernel::Log10, baseline: base::log10 }
        exp => EXP { entry: fexp::exp, kernel: kernel::Exp, baseline: base::exp }
        exp2 => EXP2 { entry: fexp::exp2, kernel: kernel::Exp2, baseline: base::exp2 }
        exp10 => EXP10 { entry: fexp::exp10, kernel: kernel::Exp10, baseline: base::exp10 }
        sinh => SINH { entry: hyper::sinh, kernel: kernel::Sinh, baseline: base::sinh }
        cosh => COSH { entry: hyper::cosh, kernel: kernel::Cosh, baseline: base::cosh }
        sinpi => SINPI { entry: trig::sinpi, kernel: kernel::Sinpi, baseline: base::sinpi }
        cospi => COSPI { entry: trig::cospi, kernel: kernel::Cospi, baseline: base::cospi }
    }
    posit32 {
        ln => P32_LN { entry: posit::ln_p32, kernel: kernel::Ln }
        log2 => P32_LOG2 { entry: posit::log2_p32, kernel: kernel::Log2 }
        log10 => P32_LOG10 { entry: posit::log10_p32, kernel: kernel::Log10 }
        exp => P32_EXP { entry: posit::exp_p32, kernel: kernel::Exp }
        exp2 => P32_EXP2 { entry: posit::exp2_p32, kernel: kernel::Exp2 }
        exp10 => P32_EXP10 { entry: posit::exp10_p32, kernel: kernel::Exp10 }
        sinh => P32_SINH { entry: posit::sinh_p32, kernel: kernel::Sinh }
        cosh => P32_COSH { entry: posit::cosh_p32, kernel: kernel::Cosh }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlibm_mp::Func;

    /// Names that must resolve nowhere: close misses, padding, case.
    const UNKNOWN: &[&str] = &["tan", "log", "exp3", "", "LN", "sinpi ", "ln\n"];

    #[test]
    fn names_follow_the_oracle_tables() {
        let f32_names: Vec<&str> = Func::ALL.iter().map(|f| f.name()).collect();
        let posit_names: Vec<&str> = Func::POSIT.iter().map(|f| f.name()).collect();
        assert_eq!(F32_NAMES.as_slice(), f32_names.as_slice(), "Table 1 order");
        assert_eq!(POSIT32_NAMES.as_slice(), posit_names.as_slice(), "Table 2 order");
        assert_eq!(slot::COUNT, F32_NAMES.len() + POSIT32_NAMES.len());
        assert_eq!(crate::fault::SITE_COUNT, slot::COUNT, "one fault site per slot");
        for (i, r) in F32_ROWS.iter().enumerate() {
            assert_eq!(r.name, F32_NAMES[i]);
        }
        for (i, r) in POSIT32_ROWS.iter().enumerate() {
            assert_eq!(r.name, POSIT32_NAMES[i]);
            assert!(F32_NAMES.contains(&r.name), "posit {} has no f32 twin", r.name);
        }
    }

    #[test]
    fn f32_dispatch_covers_exactly_the_table() {
        let xs = [0.25f32, 0.5, 1.5];
        let mut out = [0.0f32; 3];
        for (i, name) in F32_NAMES.into_iter().enumerate() {
            assert!(crate::f32_fn_by_name(name).is_some(), "{name}");
            assert!(crate::f32_dd_fn_by_name(name).is_some(), "{name}");
            assert!(crate::baseline_f32_fn_by_name(name).is_some(), "{name}");
            assert!(crate::eval_f32_by_name(name, 0.5).is_some(), "{name}");
            assert_eq!(crate::stats::f32_slot_by_name(name), Some(i), "{name}");
            assert!(crate::eval_slice_f32(name, &xs, &mut out).is_ok(), "{name}");
        }
        for &name in UNKNOWN {
            assert!(crate::f32_fn_by_name(name).is_none(), "{name:?}");
            assert!(crate::f32_dd_fn_by_name(name).is_none(), "{name:?}");
            assert!(crate::baseline_f32_fn_by_name(name).is_none(), "{name:?}");
            assert!(crate::stats::f32_slot_by_name(name).is_none(), "{name:?}");
            assert_eq!(
                crate::eval_slice_f32(name, &xs, &mut out),
                Err(crate::UnknownFunction(name.to_owned()))
            );
        }
    }

    #[test]
    fn posit32_dispatch_covers_exactly_the_table() {
        let x = Posit32::from_f64(0.5);
        let xs = [x; 3];
        let mut out = [Posit32::ZERO; 3];
        for (i, name) in POSIT32_NAMES.into_iter().enumerate() {
            assert!(crate::posit32_fn_by_name(name).is_some(), "{name}");
            assert!(crate::posit32_dd_fn_by_name(name).is_some(), "{name}");
            assert!(crate::eval_posit32_by_name(name, x).is_some(), "{name}");
            assert_eq!(crate::stats::posit32_slot_by_name(name), Some(F32_NAMES.len() + i));
            assert!(crate::eval_slice_posit32(name, &xs, &mut out).is_ok(), "{name}");
        }
        for name in UNKNOWN.iter().copied().chain(["sinpi", "cospi"]) {
            assert!(crate::posit32_fn_by_name(name).is_none(), "{name:?}");
            assert!(crate::posit32_dd_fn_by_name(name).is_none(), "{name:?}");
            assert!(crate::stats::posit32_slot_by_name(name).is_none(), "{name:?}");
            assert_eq!(
                crate::eval_slice_posit32(name, &xs, &mut out),
                Err(crate::UnknownFunction(name.to_owned()))
            );
        }
    }

    #[test]
    fn sixteen_bit_dispatch_covers_the_posit_set() {
        let p = Posit16::from_f64(0.5);
        let h = Half::from_f64(0.5);
        let b = BFloat16::from_f64(0.5);
        for name in POSIT32_NAMES {
            assert!(crate::eval_posit16_by_name(name, p).is_some(), "{name}");
            assert!(crate::eval_half_by_name(name, h).is_some(), "{name}");
            assert!(crate::eval_bf16_by_name(name, b).is_some(), "{name}");
        }
        for name in UNKNOWN.iter().copied().chain(["sinpi", "cospi"]) {
            assert!(crate::eval_posit16_by_name(name, p).is_none(), "{name:?}");
            assert!(crate::eval_half_by_name(name, h).is_none(), "{name:?}");
            assert!(crate::eval_bf16_by_name(name, b).is_none(), "{name:?}");
        }
    }

    #[test]
    fn tier_specs_follow_the_slots() {
        for (s, t) in TIERS.iter().enumerate() {
            assert_eq!(TierSpec::by_name(t.name), Some(t));
            let (kind, name) = t.name.split_once('.').expect("kind.name");
            let want = if s < F32_NAMES.len() {
                ("f32", F32_NAMES[s])
            } else {
                ("posit32", POSIT32_NAMES[s - F32_NAMES.len()])
            };
            assert_eq!((kind, name), want);
            // Every accessor answers for every slot, in both telemetry
            // configurations; no call ships from a full tier.
            let _ = crate::stats::tier_prefix(s) + crate::stats::tier_dd(s);
            assert_eq!(crate::stats::tier_full(s), 0);
        }
        for name in ["f32.tan", "posit32.sinpi", "posit32.cospi", "exp", ""] {
            assert_eq!(TierSpec::by_name(name), None, "{name:?}");
        }
    }

    #[test]
    fn every_rung_has_slack() {
        for t in &TIERS {
            assert!(t.rung.derived < t.rung.band, "{}: no fault slack", t.name);
            assert!(t.rung.band < (1 << 26), "{}: band too wide for f32_round_safe", t.name);
        }
    }
}
