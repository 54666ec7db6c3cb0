//! The function registry: one row per (kind, function), and every
//! per-function list in the crate generated from it.
//!
//! The table at the bottom of this module holds ten f32 rows in the
//! paper's Table 1 order, then eight posit32 rows in Table 2 order. A
//! row's index is its counter slot ([`slot`]) and its fault-injection
//! site. Each row names:
//!
//! * the scalar entry point and its dd-only reference (`*_dd`);
//! * its fast kernel ([`crate::kernel`]): one type carrying the kernel's
//!   math for every lane and tier, its tiers' Horner terms, bands and
//!   derived bounds, its f32 batched domain and its dd kernel;
//! * for f32 the float baseline; for posit32 the batched domain (a
//!   `PositDomain` value, the posit entry's filter) and the posit16 /
//!   binary16 / bfloat16 functions of the same name.
//!
//! From the rows the `registry!` macro generates the [`slot`] constants,
//! [`F32_NAMES`] / [`POSIT32_NAMES`], the tier specs ([`TIERS`]), the
//! `runtime.tier.*` counters behind [`crate::stats`], the dispatch rows
//! behind the crate's `*_by_name` functions and `eval_slice_*` entries,
//! the batched entries, and one inlined `ladder` call per row. Adding a
//! function means adding a kernel and a row here and writing its entry
//! point's special-case filter; nothing else keeps a per-function list.
//!
//! # The ladder
//!
//! After its filter, every scalar entry point climbs the same three
//! rungs: the kernel's truncated **prefix** polynomial tested against a
//! wide round-safety band, the **full**-degree polynomial tested against
//! the regular band, and the dd kernel with round-to-odd. Soundness,
//! pinned by the tests below: a value that passes the prefix band while
//! the prefix polynomial is within `prefix_derived` of the dd kernel
//! rounds identically to the dd result, and likewise for the full tier.
//! The fault hook nudges prefix results by the full tier's slack, so the
//! ladder also needs `prefix_derived + (full_band - full_derived) <=
//! prefix_band`.

use rlibm_fp::{BFloat16, Half, Representation};
use rlibm_obs::Counter;
use rlibm_posit::{Posit16, Posit32};

use crate::float::{exp as fexp, hyper, log, trig};
use crate::kernel::{self, Kernel};
use crate::lane::F64Lane;
use crate::posit::{LN_MAXPOS, LOG10_MAXPOS};
use crate::slice::{PositDomain, Tally};
use crate::stats::TierCounters;
use crate::{baselines::float32 as base, bf16, half16, p16, posit, slice};

/// One tier of a ladder, in `2^-53` relative units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// Terms the tier's Horner chain evaluates.
    pub terms: usize,
    /// Round-safety band the tier's result is tested against (28-bit
    /// frac distance).
    pub band: u64,
    /// Certified bound on |tier result − dd kernel|.
    pub derived: u64,
}

/// One row's escalation ladder: its kernel's two fast tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Row name, matching the suffix of the `runtime.tier.*` counters
    /// (e.g. `"f32.exp"`).
    pub name: &'static str,
    /// The truncated-polynomial tier.
    pub prefix: Rung,
    /// The full-degree tier.
    pub full: Rung,
}

impl TierSpec {
    /// The soundness inequality for this ladder: any value the prefix
    /// tier accepts must also be a value the full tier would accept,
    /// given the two certified error bounds.
    pub const fn prefix_subsumed_by_full(&self) -> bool {
        self.prefix.derived + (self.full.band - self.full.derived) <= self.prefix.band
    }

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

/// A 32-bit format the ladder and the batched driver round into. Every
/// tier evaluates in f64 whatever the format, so a format only supplies
/// its exact widening and correctly rounding narrowing
/// ([`Representation`]), the round-safety test that certifies a double,
/// its batched fast-path domain, and the counters its slices land in.
pub(crate) trait Lane: Representation {
    /// Filler for a partial chunk's unused lanes (never read back).
    const PAD: Self;
    /// A row's batched domain as data (f32 rows read theirs off the
    /// kernel).
    type Domain: Copy;
    /// True when narrowing `y` is the correct rounding of every value
    /// within `band · 2^-53` relative of it (see [`crate::round`]).
    fn round_safe(y: f64, band: u64) -> bool;
    /// The lanes of the widened `x` in kernel `K`'s batched domain.
    fn in_domain<K: Kernel, V: F64Lane>(dom: Self::Domain, x: V) -> V::Mask;
    /// This format's `(chunks, rescalar lanes)` slice counters.
    fn counters() -> (&'static Counter, &'static Counter);
}

impl Lane for f32 {
    const PAD: f32 = 1.0;
    type Domain = ();

    #[inline(always)]
    fn round_safe(y: f64, band: u64) -> bool {
        crate::round::f32_round_safe(y, band)
    }

    #[inline(always)]
    fn in_domain<K: Kernel, V: F64Lane>((): (), x: V) -> V::Mask {
        K::dom(x)
    }

    fn counters() -> (&'static Counter, &'static Counter) {
        (&slice::SLICE_CHUNKS, &slice::SLICE_RESCALAR)
    }
}

impl Lane for Posit32 {
    const PAD: Posit32 = Posit32::ONE;
    type Domain = PositDomain;

    #[inline(always)]
    fn round_safe(y: f64, band: u64) -> bool {
        crate::round::posit32_round_safe(y, band)
    }

    #[inline(always)]
    fn in_domain<K: Kernel, V: F64Lane>(dom: PositDomain, x: V) -> V::Mask {
        dom.mask(x)
    }

    fn counters() -> (&'static Counter, &'static Counter) {
        (&slice::SLICE_POSIT_CHUNKS, &slice::SLICE_POSIT_RESCALAR)
    }
}

/// The progressive-tier ladder of kernel `K`: the prefix result
/// (through the fault hook of `slot`) ships if it is round-safe under the
/// prefix band, else the full result if round-safe under the full band,
/// else the dd kernel's round-to-odd composition. Each outcome bumps its
/// tier counter. `xd` is the filtered input widened to f64.
#[inline(always)]
pub(crate) fn ladder<L: Lane, K: Kernel>(slot: usize, xd: f64) -> L {
    let y = crate::fault::perturb(slot, K::eval::<f64, true>(xd));
    if L::round_safe(y, K::PREFIX.band) {
        crate::stats::record_tier_prefix(slot);
        return L::round_from_f64(y);
    }
    escalate::<L, K>(slot, xd)
}

/// The ladder's full and dd rungs, out of line: under 0.1% of calls get
/// here, and inlining them into every entry point measured slower prefix
/// paths (`float.sinpi.ns` +25% in the benchmark's `call_f32`).
#[cold]
#[inline(never)]
fn escalate<L: Lane, K: Kernel>(slot: usize, xd: f64) -> L {
    let y = K::eval::<f64, false>(xd);
    if L::round_safe(y, K::FULL.band) {
        crate::stats::record_tier_full(slot);
        return L::round_from_f64(y);
    }
    crate::stats::record_tier_dd(slot);
    crate::round::round_dd(K::dd(xd))
}

macro_rules! tier_counters {
    ($kind:literal, $name:ident) => {
        TierCounters::new(
            concat!("runtime.tier.prefix.", $kind, ".", stringify!($name)),
            concat!("runtime.tier.full.", $kind, ".", stringify!($name)),
            concat!("runtime.tier.dd.", $kind, ".", stringify!($name)),
        )
    };
}

macro_rules! registry {
    (
        f32 {$(
            $f:ident => $fs:ident {
                entry: $fentry:path, dd: $fdd:path,
                kernel: $fk:ty,
                baseline: $fbase:path $(,)?
            }
        )*}
        posit32 {$(
            $p:ident => $ps:ident {
                entry: $pentry:path, dd: $pdd:path,
                kernel: $pk:ty,
                domain: $pdom:expr,
                sixteen: [$p16:path, $half:path, $bf16:path] $(,)?
            }
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

        /// Every row's ladder, indexed by [`slot`].
        pub static TIERS: [TierSpec; slot::COUNT] = [
            $(TierSpec {
                name: concat!("f32.", stringify!($f)),
                prefix: <$fk>::PREFIX,
                full: <$fk>::FULL,
            },)*
            $(TierSpec {
                name: concat!("posit32.", stringify!($p)),
                prefix: <$pk>::PREFIX,
                full: <$pk>::FULL,
            },)*
        ];

        /// The `runtime.tier.{prefix,full,dd}.<kind>.<fn>` counters,
        /// indexed by [`slot`].
        pub(crate) static TIER_COUNTERS: [TierCounters; slot::COUNT] = [
            $(tier_counters!("f32", $f),)*
            $(tier_counters!("posit32", $p),)*
        ];

        /// The f32 rows, in slot order.
        pub static F32_ROWS: [F32Row; F32_COUNT] = [$(F32Row {
            name: stringify!($f),
            scalar: $fentry,
            dd: $fdd,
            slice: |xs, out| {
                f32_batched::$f(xs, out, true);
            },
            baseline: $fbase,
        },)*];

        /// The posit32 rows, in slot order (slot = index + 10).
        pub static POSIT32_ROWS: [Posit32Row; slot::COUNT - F32_COUNT] = [$(Posit32Row {
            name: stringify!($p),
            scalar: $pentry,
            dd: $pdd,
            slice: |xs, out| {
                posit32_batched::$p(xs, out, true);
            },
            p16: $p16,
            half: $half,
            bf16: $bf16,
        },)*];

        /// The f32 rows' ladders: each entry point's path after its
        /// special-case filter.
        pub(crate) mod f32_ladder {
            use super::*;
            $(
                #[inline(always)]
                pub(crate) fn $f(xd: f64) -> f32 {
                    ladder::<f32, $fk>(slot::$fs, xd)
                }
            )*
        }

        /// The posit32 rows' ladders.
        pub(crate) mod posit32_ladder {
            use super::*;
            $(
                #[inline(always)]
                pub(crate) fn $p(xd: f64) -> Posit32 {
                    ladder::<Posit32, $pk>(slot::$ps, xd)
                }
            )*
        }

        /// The f32 rows' batched entries: the batched driver over the
        /// row's kernel and domain, on the widest lane the CPU runs when
        /// `widest` is set and on `f64` otherwise; the scalar entry
        /// resolves special and twice-rejected lanes.
        mod f32_batched {
            use super::*;
            $(
                pub(super) fn $f(xs: &[f32], out: &mut [f32], widest: bool) -> Tally {
                    slice::dispatch::<f32, $fk>(xs, out, (), slot::$fs, $fentry, widest)
                }
            )*
        }

        /// The posit32 rows' batched entries (see `f32_batched`).
        mod posit32_batched {
            use super::*;
            $(
                pub(super) fn $p(xs: &[Posit32], out: &mut [Posit32], widest: bool) -> Tally {
                    slice::dispatch::<Posit32, $pk>(xs, out, $pdom, slot::$ps, $pentry, widest)
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

// Each row names its kernel, whose consts carry the bands, derived
// bounds and term counts (derived in `crate::kernel`). The posit rows
// run their f32 twins' kernels: the bands bound the kernel's error, not
// the target's rounding. Each posit domain filter is its scalar entry's
// filter; NaR widens to NaN, which every filter rejects.
registry! {
    f32 {
        ln => LN { entry: log::ln, dd: log::ln_dd, kernel: kernel::Ln, baseline: base::ln }
        log2 => LOG2 {
            entry: log::log2, dd: log::log2_dd, kernel: kernel::Log2, baseline: base::log2,
        }
        log10 => LOG10 {
            entry: log::log10, dd: log::log10_dd, kernel: kernel::Log10, baseline: base::log10,
        }
        exp => EXP { entry: fexp::exp, dd: fexp::exp_dd, kernel: kernel::Exp, baseline: base::exp }
        exp2 => EXP2 {
            entry: fexp::exp2, dd: fexp::exp2_dd, kernel: kernel::Exp2, baseline: base::exp2,
        }
        exp10 => EXP10 {
            entry: fexp::exp10, dd: fexp::exp10_dd, kernel: kernel::Exp10, baseline: base::exp10,
        }
        sinh => SINH {
            entry: hyper::sinh, dd: hyper::sinh_dd, kernel: kernel::Sinh, baseline: base::sinh,
        }
        cosh => COSH {
            entry: hyper::cosh, dd: hyper::cosh_dd, kernel: kernel::Cosh, baseline: base::cosh,
        }
        sinpi => SINPI {
            entry: trig::sinpi, dd: trig::sinpi_dd, kernel: kernel::Sinpi, baseline: base::sinpi,
        }
        cospi => COSPI {
            entry: trig::cospi, dd: trig::cospi_dd, kernel: kernel::Cospi, baseline: base::cospi,
        }
    }
    posit32 {
        ln => P32_LN {
            entry: posit::ln_p32, dd: posit::ln_p32_dd, kernel: kernel::Ln,
            domain: PositDomain::Positive,
            sixteen: [p16::ln_p16, half16::ln_f16, bf16::ln_bf16],
        }
        log2 => P32_LOG2 {
            entry: posit::log2_p32, dd: posit::log2_p32_dd, kernel: kernel::Log2,
            domain: PositDomain::Positive,
            sixteen: [p16::log2_p16, half16::log2_f16, bf16::log2_bf16],
        }
        log10 => P32_LOG10 {
            entry: posit::log10_p32, dd: posit::log10_p32_dd, kernel: kernel::Log10,
            domain: PositDomain::Positive,
            sixteen: [p16::log10_p16, half16::log10_f16, bf16::log10_bf16],
        }
        exp => P32_EXP {
            entry: posit::exp_p32, dd: posit::exp_p32_dd, kernel: kernel::Exp,
            domain: PositDomain::Abs(0.0, LN_MAXPOS + 0.5),
            sixteen: [p16::exp_p16, half16::exp_f16, bf16::exp_bf16],
        }
        exp2 => P32_EXP2 {
            entry: posit::exp2_p32, dd: posit::exp2_p32_dd, kernel: kernel::Exp2,
            domain: PositDomain::Abs(0.0, 120.5),
            sixteen: [p16::exp2_p16, half16::exp2_f16, bf16::exp2_bf16],
        }
        exp10 => P32_EXP10 {
            entry: posit::exp10_p32, dd: posit::exp10_p32_dd, kernel: kernel::Exp10,
            domain: PositDomain::Abs(0.0, LOG10_MAXPOS + 0.5),
            sixteen: [p16::exp10_p16, half16::exp10_f16, bf16::exp10_bf16],
        }
        sinh => P32_SINH {
            entry: posit::sinh_p32, dd: posit::sinh_p32_dd, kernel: kernel::Sinh,
            // `sinh_p32` returns x itself below 2^-13.
            domain: PositDomain::Abs(1.0 / 8192.0, LN_MAXPOS + 1.5),
            sixteen: [p16::sinh_p16, half16::sinh_f16, bf16::sinh_bf16],
        }
        cosh => P32_COSH {
            entry: posit::cosh_p32, dd: posit::cosh_p32_dd, kernel: kernel::Cosh,
            domain: PositDomain::Abs(0.0, LN_MAXPOS + 1.5),
            sixteen: [p16::cosh_p16, half16::cosh_f16, bf16::cosh_bf16],
        }
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
            // configurations.
            let _ = crate::stats::tier_prefix(s) + crate::stats::tier_full(s);
            let _ = crate::stats::tier_dd(s);
        }
        for name in ["f32.tan", "posit32.sinpi", "posit32.cospi", "exp", ""] {
            assert_eq!(TierSpec::by_name(name), None, "{name:?}");
        }
    }

    #[test]
    fn every_ladder_is_sound() {
        for t in &TIERS {
            assert!(
                t.prefix_subsumed_by_full(),
                "{}: prefix derived {} + (full band {} - full derived {}) > prefix band {}",
                t.name,
                t.prefix.derived,
                t.full.band,
                t.full.derived,
                t.prefix.band
            );
            assert!(t.full.derived < t.full.band, "{}: no fault slack", t.name);
            assert!(t.prefix.band > t.full.band, "{}: prefix band must be wider", t.name);
            assert!(t.prefix.band < (1 << 26), "{}: band too wide for round_safe", t.name);
            assert!(t.prefix.terms < t.full.terms, "{}: prefix must be shorter", t.name);
        }
    }
}
