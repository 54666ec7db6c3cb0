//! Batched evaluation — the §4.3 vectorization regime as a real API.
//!
//! [`eval_slice_f32`] and [`eval_slice_posit32`] evaluate a whole input
//! slice with the same two-step guarantee as the scalar functions: the
//! output is **bit-identical** to mapping the scalar function over the
//! slice.
//!
//! # One driver
//!
//! [`drive`] runs every (format, function) pair over 64-lane chunks, and
//! it is generic over the f64 lane ([`crate::lane`]): `f64`, a group of
//! one lane, is the portable path; the AVX2 lane (`simd` feature on an
//! AVX2 CPU, chosen at run time by [`dispatch`]) evaluates groups of four.
//! Per chunk:
//!
//! 1. **stage**: each group of lanes is widened (f32 cast or posit
//!    decode), classified against the row's fast-path domain (its front
//!    end's `fast_dom`; out-of-domain lanes get the placeholder `1.0`, so
//!    the arithmetic stays total), and run through the kernel — the same
//!    `Kernel::eval` the scalar entry runs;
//! 2. **safety mask**: the round-safety test against the kernel's band,
//!    fused with the narrowing cast (f32 cast or posit encode);
//! 3. **resolve**: special lanes and the lanes the band rejects (rare:
//!    well under 1% of in-domain lanes) re-enter the scalar entry, which
//!    owns the dd tier.
//!
//! A format supplies only its two ends ([`Ends`]): widen + decode, and
//! round-safe + narrow. For `f64` those are the scalar predicates and
//! codecs; for AVX2 their vector twins in the `slice_simd` module.
//! Per-tier accounting lands in the same `runtime.tier.*` counters the
//! scalar front ends use — fast-step acceptances batched per call, dd
//! events recorded by the scalar entry the rescalar lanes fall into.
//!
//! Each lane's domain is the mask half of its function's front end
//! ([`crate::front::Front::fast_dom`]), the same definition the scalar
//! entry tests, so a lane takes the staged path exactly when the scalar
//! entry would run the kernel. Special lanes resolve through the scalar
//! entry.

use crate::front::Front;
use crate::kernel::Kernel;
use crate::lane::F64Lane;
use crate::registry::{F32Row, Lane, Posit32Row};
use rlibm_obs::Counter;
use rlibm_posit::Posit32;

/// The AVX2 ends of both formats (`simd` feature, x86_64 only).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[path = "slice_simd.rs"]
pub(crate) mod simd;

/// Chunk width of the driver. 64 lanes of f64 is 4 cache lines per stage
/// array — small enough to stay resident, wide enough that the per-chunk
/// overhead vanishes — and one lane bitmask is one `u64`.
pub(crate) const LANES: usize = 64;

// Batched-evaluation telemetry (no-ops unless built with the `telemetry`
// feature). Both counters accumulate locally and hit the atomics once per
// call, never per lane. The rescalar count is the number to watch: every
// rescalar lane pays the scalar price, so a high ratio against
// `64 * chunks` means the workload defeats the staging.
pub(crate) static SLICE_CHUNKS: Counter = Counter::new("runtime.slice.f32.chunks");
pub(crate) static SLICE_RESCALAR: Counter = Counter::new("runtime.slice.f32.rescalar_lanes");

// The posit32 counterparts, plus the total requests (lanes) served, so
// serving-layer posit traffic shows up in TELEM snapshots.
pub(crate) static SLICE_POSIT_CHUNKS: Counter = Counter::new("runtime.slice.posit32.chunks");
pub(crate) static SLICE_POSIT_RESCALAR: Counter =
    Counter::new("runtime.slice.posit32.rescalar_lanes");
static SLICE_POSIT_REQUESTS: Counter = Counter::new("runtime.slice.posit32.requests");

/// Forces the slice counters into the snapshot registry at value zero.
pub(crate) fn register_metrics() {
    SLICE_CHUNKS.register();
    SLICE_RESCALAR.register();
    SLICE_POSIT_CHUNKS.register();
    SLICE_POSIT_RESCALAR.register();
    SLICE_POSIT_REQUESTS.register();
}

/// Resolves one rescalar lane through the scalar entry. With
/// the `telemetry` feature the lane is also timed and reported to the
/// flight recorder as an exemplar (`rescalar` event carrying the input
/// bits, attributed via the thread's trace context), and the scalar-path
/// nanoseconds accrue into the per-thread fallback accumulator the
/// serving layer drains per batch. The scalar value is computed
/// identically in both configs — tracing observes, never alters.
#[cfg(feature = "telemetry")]
#[inline]
fn rescalar_resolve<L: Lane>(scalar: fn(L) -> L, x: L) -> L {
    let t0 = std::time::Instant::now();
    let v = scalar(x);
    let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    rlibm_obs::trace::rescalar_exemplar(x.to_bits_u32(), ns);
    v
}

#[cfg(not(feature = "telemetry"))]
#[inline(always)]
fn rescalar_resolve<L: Lane>(scalar: fn(L) -> L, x: L) -> L {
    scalar(x)
}

/// Routes the kernel results of the lanes set in `lanes` through the
/// fault hook of the registry row `slot`, as the scalar entry routes its
/// kernel result, so `fault` builds also test the batched driver's
/// round-safety certification. Compiles to nothing without `fault`.
#[inline(always)]
fn perturb_prefix(slot: usize, y: &mut [f64; LANES], lanes: u64) {
    #[cfg(feature = "fault")]
    {
        let mut lanes = lanes;
        while lanes != 0 {
            let i = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            y[i] = crate::fault::perturb(slot, y[i]);
        }
    }
    #[cfg(not(feature = "fault"))]
    let _ = (slot, y, lanes);
}

/// A lane format's two ends around the shared kernel math, for the f64
/// lane `V`. Group `g` is lanes `WIDTH·g ..` of a chunk (`g` is taken
/// modulo the group count).
pub(crate) trait Ends<V: F64Lane>: Lane {
    /// Widens (or decodes) group `g` of `xs` exactly to f64 lanes.
    fn widen(isa: V::Isa, xs: &[Self; LANES], g: usize) -> V;
    /// The round-safety test of `y` against `band` as bits `0..WIDTH`,
    /// with the narrowing of every accepted lane written to group `g` of
    /// `out` (other lanes' values are unspecified).
    fn safe_narrow(y: V, band: u64, out: &mut [Self; LANES], g: usize) -> u64;
}

/// The portable ends: the scalar codec and fused round-safe narrowing.
impl<L: Lane> Ends<f64> for L {
    #[inline(always)]
    fn widen((): (), xs: &[L; LANES], g: usize) -> f64 {
        xs[g % LANES].to_f64()
    }

    #[inline(always)]
    fn safe_narrow(y: f64, band: u64, out: &mut [L; LANES], g: usize) -> u64 {
        let narrowed = L::narrow_if_safe(y, band);
        if let Some(v) = narrowed {
            out[g % LANES] = v;
        }
        u64::from(narrowed.is_some())
    }
}

/// A format the batched entries serve: its ends for every f64 lane the
/// build has.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) trait SliceFormat: Ends<f64> + Ends<crate::lane::avx2::Avx2> {}
/// A format the batched entries serve: its ends for every f64 lane the
/// build has.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
pub(crate) trait SliceFormat: Ends<f64> {}

impl SliceFormat for f32 {}
impl SliceFormat for Posit32 {}

/// Runs kernel `K` on groups `0..groups`: widen, domain mask
/// (placeholder `1.0` outside the domain), eval, store to `y`. Returns
/// the in-domain lanes of the staged groups.
#[inline(always)]
fn stage<L: Ends<V>, V: F64Lane, K: Kernel + Front<L>>(
    isa: V::Isa,
    xs: &[L; LANES],
    y: &mut [f64; LANES],
    groups: usize,
) -> u64 {
    let mut in_dom = 0u64;
    for g in 0..groups {
        let x = L::widen(isa, xs, g);
        let m = K::fast_dom(x);
        K::eval(V::blend(m, x, x.splat(1.0))).store(y, g);
        in_dom |= V::mask_bits(m) << (V::WIDTH * g);
    }
    in_dom
}

/// The round-safety mask against `band` of groups `0..groups`, with the
/// accepted lanes narrowed into `out`.
#[inline(always)]
pub(crate) fn safe_narrow<L: Ends<V>, V: F64Lane>(
    isa: V::Isa,
    y: &[f64; LANES],
    band: u64,
    groups: usize,
    out: &mut [L; LANES],
) -> u64 {
    let mut safe = 0u64;
    for g in 0..groups {
        safe |= L::safe_narrow(V::load(isa, y, g), band, out, g) << (V::WIDTH * g);
    }
    safe
}

/// The batched driver, generic over the lane format `L`, the f64 lane
/// `V` and the kernel `K`: the kernel stage, the safety mask against the
/// kernel's band, and the rescalar resolve of special and rejected lanes
/// through `scalar` (the row's entry point), with the tier and slice
/// counters of the registry row `slot`.
pub(crate) fn drive<L: Ends<V>, V: F64Lane, K: Kernel + Front<L>>(
    isa: V::Isa,
    xs: &[L],
    out: &mut [L],
    slot: usize,
    scalar: fn(L) -> L,
) -> Tally {
    assert_eq!(xs.len(), out.len(), "eval_slice: input/output length mismatch");
    let mut y = [0.0f64; LANES];
    let mut narrowed = [L::PAD; LANES];
    let mut xpad = [L::PAD; LANES];
    let mut tally = Tally::default();
    for (xc, oc) in xs.chunks(LANES).zip(out.chunks_mut(LANES)) {
        tally.chunks += 1;
        let n = xc.len();
        let live = if n == LANES { u64::MAX } else { (1u64 << n) - 1 };
        let xfull: &[L; LANES] = match xc.try_into() {
            Ok(full) => full,
            Err(_) => {
                // Final partial chunk: pad lanes are never read back.
                xpad[..n].copy_from_slice(xc);
                &xpad
            }
        };
        // Each `enter` is one AVX2 stage on that lane (see `crate::lane`).
        // Wide lanes stage every group of a partial chunk, pad lanes
        // included: staging only the live groups measured 20% lower
        // `serve_mixed` throughput, whose flushes are mostly partial. One
        // `f64` lane is one kernel call, so it stages live lanes only.
        let staged = if V::WIDTH == 1 { n } else { LANES / V::WIDTH };
        let in_dom = V::enter(
            isa,
            #[inline(always)]
            || stage::<L, V, K>(isa, xfull, &mut y, staged),
        ) & live;
        perturb_prefix(slot, &mut y, in_dom);
        let safe = V::enter(
            isa,
            #[inline(always)]
            || safe_narrow(isa, &y, K::RUNG.band, staged, &mut narrowed),
        );
        let shipped = in_dom & safe;
        tally.prefix += u64::from(shipped.count_ones());
        // Ship every lane's narrowed result, then overwrite the special
        // lanes and the ones the band did not accept.
        match <&mut [L; LANES]>::try_from(&mut *oc) {
            Ok(full) => *full = narrowed,
            Err(_) => oc.copy_from_slice(&narrowed[..n]),
        }
        let mut rest = live & !shipped;
        tally.rescalar += u64::from(rest.count_ones());
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            oc[i] = rescalar_resolve(scalar, xc[i]);
        }
    }
    let (chunk_counter, rescalar_counter) = L::counters();
    chunk_counter.add(tally.chunks);
    rescalar_counter.add(tally.rescalar);
    crate::stats::record_tier_prefix_n(slot, tally.prefix);
    tally
}

/// One [`drive`] call's accounting, as added to the slice and tier
/// counters (returned so the tests can compare lanes without telemetry).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Chunks evaluated.
    pub(crate) chunks: u64,
    /// Lanes resolved through the scalar entry.
    pub(crate) rescalar: u64,
    /// Lanes shipped from the kernel's fast step.
    pub(crate) prefix: u64,
}

/// [`drive`] on the widest lane the CPU runs when `widest` is set (AVX2
/// when the `simd` feature is on and the CPU has it), else on `f64`.
#[inline(always)]
pub(crate) fn dispatch<L: SliceFormat, K: Kernel + Front<L>>(
    xs: &[L],
    out: &mut [L],
    slot: usize,
    scalar: fn(L) -> L,
    widest: bool,
) -> Tally {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if let Some(isa) = crate::lane::avx2::Avx2Isa::detect().filter(|_| widest) {
        return drive::<L, crate::lane::avx2::Avx2, K>(isa, xs, out, slot, scalar);
    }
    let _ = widest;
    drive::<L, f64, K>((), xs, out, slot, scalar)
}

/// Error returned by the by-name slice entry points when the name is not
/// in the paper's function tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFunction(pub String);

impl core::fmt::Display for UnknownFunction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "unknown function {:?}", self.0)
    }
}

impl std::error::Error for UnknownFunction {}

/// Batched evaluation of an f32 function by its paper-table name:
/// `out[i] = f(xs[i])`, bit-identical to the scalar function (special
/// lanes — NaN, ±0, ±inf, out-of-domain — resolve per lane through the
/// scalar entry). Unknown names are a typed error, not a panic.
pub fn eval_slice_f32(name: &str, xs: &[f32], out: &mut [f32]) -> Result<(), UnknownFunction> {
    let row = F32Row::by_name(name).ok_or_else(|| UnknownFunction(name.to_owned()))?;
    (row.slice)(xs, out);
    Ok(())
}

/// Batched evaluation of a posit32 function by name: `out[i] = f(xs[i])`,
/// bit-identical to the scalar function. Lanes run the same kernels as
/// [`eval_slice_f32`], behind the posit decode and encode; each lane's
/// domain mask is its scalar entry's front end, so NaR, zero and
/// negative log inputs, saturating exp/sinh/cosh inputs and sinh's
/// `|x| < 2^-13` lanes resolve per lane through that entry (NaR in, NaR
/// out), as do the in-domain lanes the band rejects. Unknown names are
/// a typed error.
pub fn eval_slice_posit32(
    name: &str,
    xs: &[Posit32],
    out: &mut [Posit32],
) -> Result<(), UnknownFunction> {
    let row = Posit32Row::by_name(name).ok_or_else(|| UnknownFunction(name.to_owned()))?;
    (row.slice)(xs, out);
    SLICE_POSIT_REQUESTS.add(xs.len() as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlibm_fp::rng::XorShift64;

    fn adversarial_inputs() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            88.9,
            -106.5,
            128.5,
            -151.5,
            38.7,
            -45.7,
            90.5,
            -90.5,
            0.5,
            2.5,
            8_388_609.0,
            1e-8,
            2e-4,
        ];
        let mut rng = XorShift64::new(0x51CE);
        for _ in 0..5000 {
            xs.push(f32::from_bits(rng.next_u32()));
        }
        // Plus a dense in-domain band for each family.
        for i in 0..2000 {
            xs.push(-20.0 + i as f32 * 0.02); // exp/sinh/cosh/trig range
            xs.push(f32::from_bits(0x3F00_0000 + i * 37)); // near 1 for logs
        }
        xs
    }

    #[test]
    fn slices_are_bit_identical_to_scalar() {
        let xs = adversarial_inputs();
        let mut out = vec![0.0f32; xs.len()];
        for name in crate::F32_NAMES {
            eval_slice_f32(name, &xs, &mut out).expect("known name");
            for (i, (&x, &got)) in xs.iter().zip(out.iter()).enumerate() {
                let want = crate::eval_f32_by_name(name, x).expect("known name");
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{name}[{i}]: x = {x:e} ({:#010x}): slice {got:e} vs scalar {want:e}",
                    x.to_bits()
                );
            }
        }
    }

    /// Posit lanes at every edge of the batched domain filters: NaR,
    /// zero, negatives (the logs' domain), ±minpos/±maxpos, and the
    /// patterns on and either side of each saturation threshold and of
    /// sinh's `|x| < 2^-13` cut, both signs.
    fn posit_edge_lanes() -> Vec<Posit32> {
        use crate::front::{LN_MAXPOS, LOG10_MAXPOS};
        let mut lanes = vec![
            Posit32::NAR,
            Posit32::ZERO,
            Posit32::MINPOS,
            -Posit32::MINPOS,
            Posit32::MAXPOS,
            -Posit32::MAXPOS,
            Posit32::from_f64(-1.0),
            Posit32::from_f64(-0.37),
        ];
        for t in [LN_MAXPOS + 0.5, 120.5, LOG10_MAXPOS + 0.5, LN_MAXPOS + 1.5, 2f64.powi(-13)] {
            let p = Posit32::from_f64(t).to_bits();
            for q in [p - 1, p, p + 1] {
                lanes.push(Posit32::from_bits(q));
                lanes.push(-Posit32::from_bits(q));
            }
        }
        lanes
    }

    #[test]
    fn posit_slice_matches_scalar() {
        let mut rng = XorShift64::new(0x9051);
        let mut xs: Vec<Posit32> =
            (0..3000).map(|_| Posit32::from_bits(rng.next_u32())).collect();
        // Scatter the edge lanes through the 64-lane chunks, at a
        // different lane offset in each chunk.
        for (k, s) in posit_edge_lanes().into_iter().enumerate() {
            xs[(k * 67 + 11) % 3000] = s;
        }
        let mut out = vec![Posit32::ZERO; xs.len()];
        for name in crate::POSIT32_NAMES {
            eval_slice_posit32(name, &xs, &mut out).expect("known name");
            for (&x, &got) in xs.iter().zip(out.iter()) {
                let want = crate::eval_posit32_by_name(name, x).expect("known name");
                assert_eq!(got, want, "{name}({:#010x})", x.to_bits());
            }
        }
    }

    /// Satellite regression: specials (NaN, ±0, ±inf, subnormals,
    /// saturating magnitudes) scattered *through* a single 64-lane chunk
    /// must resolve per lane exactly like the scalar API — the staged
    /// pipeline may not let a special lane contaminate its neighbours.
    #[test]
    fn specials_scattered_through_one_chunk_resolve_per_lane() {
        let specials = [
            f32::NAN,
            f32::from_bits(0x7FC0_1234), // NaN with a payload
            f32::from_bits(0xFFC0_0001), // negative NaN payload
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),          // smallest subnormal
            f32::from_bits(0x007F_FFFF), // largest subnormal
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1e30,  // saturates exp-family
            -1e30, // underflows exp-family
        ];
        // Exactly one chunk: specials at scattered lanes, plain in-domain
        // values everywhere else.
        let mut xs = [0.0f32; 64];
        for (i, lane) in xs.iter_mut().enumerate() {
            *lane = 0.25 + i as f32 * 0.37;
        }
        for (k, &s) in specials.iter().enumerate() {
            xs[(k * 9 + 3) % 64] = s;
        }
        let mut out = [0.0f32; 64];
        for name in crate::F32_NAMES {
            eval_slice_f32(name, &xs, &mut out).expect("known name");
            for (i, (&x, &got)) in xs.iter().zip(out.iter()).enumerate() {
                let want = crate::eval_f32_by_name(name, x).expect("known name");
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{name} lane {i}: x = {x:e}: slice {got:e} vs scalar {want:e}"
                );
            }
        }

        // Posit chunk with NaR / min / max scattered among ordinary values.
        let mut pxs = [Posit32::from_f64(1.5); 64];
        for (i, lane) in pxs.iter_mut().enumerate() {
            *lane = Posit32::from_f64(0.3 + i as f64 * 0.21);
        }
        for (k, s) in
            [Posit32::NAR, Posit32::ZERO, Posit32::MINPOS, Posit32::MAXPOS].into_iter().enumerate()
        {
            pxs[(k * 17 + 5) % 64] = s;
        }
        let mut pout = [Posit32::ZERO; 64];
        for name in crate::POSIT32_NAMES {
            eval_slice_posit32(name, &pxs, &mut pout).expect("known name");
            for (i, (&x, &got)) in pxs.iter().zip(pout.iter()).enumerate() {
                let want = crate::eval_posit32_by_name(name, x).expect("known name");
                assert_eq!(got, want, "{name} lane {i}");
            }
        }
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        let mut out = [0.0f32; 1];
        let err = eval_slice_f32("tanh", &[1.0], &mut out).expect_err("unknown");
        assert_eq!(err, UnknownFunction("tanh".to_owned()));
        let mut pout = [Posit32::ZERO; 1];
        assert!(eval_slice_posit32("sinpi", &[Posit32::ZERO], &mut pout).is_err());
    }

    /// Empty slices and partial chunks (tails shorter than the chunk,
    /// and shorter than one 4-lane group) resolve every real lane.
    #[test]
    fn empty_and_partial_chunks() {
        for len in [0usize, 1, 3, 4, 5, 63, 64, 65, 67, 97, 127, 130] {
            let xs: Vec<f32> = (0..len).map(|i| i as f32 * 0.41 - 5.0).collect();
            let mut out = vec![0.0f32; len];
            for name in crate::F32_NAMES {
                eval_slice_f32(name, &xs, &mut out).expect("known name");
                for (&x, &got) in xs.iter().zip(out.iter()) {
                    let want = crate::eval_f32_by_name(name, x).expect("known name");
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "{name}({x:e}) len {len}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut out = vec![0.0f32; 3];
        let _ = eval_slice_f32("exp", &[1.0, 2.0], &mut out);
    }
}
