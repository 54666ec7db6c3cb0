//! Exhaustive 2^32 certification sweep driver (ROADMAP item 2).
//!
//! The paper's headline claim is correct rounding for **all** inputs of a
//! 32-bit representation. Sampling 1M inputs per function (plus the
//! exhaustive 16-bit targets) is evidence, not the claim itself; this
//! module turns the claim into a checked artifact. The u32 bit-pattern
//! domain is partitioned into fixed-size **shards** (`2^shard_bits`
//! consecutive bit patterns each); for every input of a shard the
//! two-tier fast path is bit-compared against the dd-only reference, and
//! a budgeted subset of shards is additionally spot-checked against the
//! Ziv oracle. Per-shard verdicts persist in a checkpoint file written
//! to a temporary sibling and renamed into place, so a crash never leaves
//! a torn file, and a sweep is resumable at shard granularity and
//! accumulates across invocations.
//!
//! The driver is deliberately **representation-agnostic**: it sweeps
//! `fn(u32) -> u32` bit transfer functions, so this crate needs no
//! dependency on the runtime library. The `certify` binary (in
//! `rlibm-bench`, which already links every layer) supplies the closures
//! — two-tier entry point, dd reference, Ziv oracle — and renders the
//! accumulated state into the committed `CERT_manifest.json`.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use rlibm_obs::{Counter, SpanTimer};

/// First token pair of a certification checkpoint file; bump the version
/// suffix when the line format changes.
pub const CERT_MAGIC: &str = "rlibm-cert v1";

/// Default shard size exponent: `2^24` inputs per shard, 256 shards per
/// function. At the measured two-tier + dd throughput (~80 ns/input on
/// the reference box) one shard is a ~1.4 s unit of resumable work.
pub const DEFAULT_SHARD_BITS: u32 = 24;

static CERT_INPUTS: Counter = Counter::new("certify.sweep.inputs");
static CERT_MISMATCHES: Counter = Counter::new("certify.sweep.mismatches");
static CERT_SHARDS: Counter = Counter::new("certify.sweep.shards");
static CERT_ORACLE_CHECKED: Counter = Counter::new("certify.oracle.checked");
static CERT_ORACLE_MISMATCHES: Counter = Counter::new("certify.oracle.mismatches");
static CERT_SHARD_SPAN: SpanTimer = SpanTimer::new("certify.shard");

/// Typed failures of the certification driver. A checkpoint that does
/// not bind to the requested sweep is an error to surface, never a
/// silent recompute.
#[derive(Debug)]
pub enum CertError {
    /// Checkpoint file malformed, version-mismatched, or bound to a
    /// different (function, kind, shard size) than requested.
    Checkpoint(String),
    /// Filesystem failure reading or writing sweep state.
    Io(String),
    /// Invalid sweep configuration (shard size out of range, shard index
    /// out of domain).
    Config(String),
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::Checkpoint(m) => write!(f, "certify checkpoint: {m}"),
            CertError::Io(m) => write!(f, "certify io: {m}"),
            CertError::Config(m) => write!(f, "certify config: {m}"),
        }
    }
}

impl std::error::Error for CertError {}

/// Outcome of sweeping one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardVerdict {
    /// Shard index (`0..shard_count`); the shard covers bit patterns
    /// `shard << shard_bits ..= (shard + 1) << shard_bits - 1`.
    pub shard: u32,
    /// Inputs where the two-tier fast path and the dd reference disagree.
    pub mismatches: u64,
    /// Bit pattern of the lowest mismatching input, if any.
    pub first_mismatch: Option<u32>,
    /// Inputs spot-checked against the Ziv oracle.
    pub oracle_checked: u64,
    /// Spot-checks where the dd reference and the oracle disagree.
    pub oracle_mismatches: u64,
    /// Bit pattern of the first oracle disagreement, if any.
    pub first_oracle_mismatch: Option<u32>,
}

impl ShardVerdict {
    /// True when neither comparison found a disagreement.
    pub fn clean(&self) -> bool {
        self.mismatches == 0 && self.oracle_mismatches == 0
    }
}

/// Aggregate view of a function's sweep state (manifest material).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertSummary {
    /// Shards in the full domain partition.
    pub shards_total: u64,
    /// Shards with a recorded verdict.
    pub shards_done: u64,
    /// Inputs covered by recorded shards.
    pub inputs_checked: u64,
    /// Total fast-vs-dd mismatches across recorded shards.
    pub mismatches: u64,
    /// Lowest first-mismatch bit pattern across recorded shards.
    pub first_mismatch: Option<u32>,
    /// Total oracle spot-checks across recorded shards.
    pub oracle_checked: u64,
    /// Total dd-vs-oracle disagreements.
    pub oracle_mismatches: u64,
    /// First dd-vs-oracle disagreement bit pattern.
    pub first_oracle_mismatch: Option<u32>,
}

impl CertSummary {
    /// `"complete"` / `"partial"` / `"pending"` manifest status.
    pub fn status(&self) -> &'static str {
        if self.shards_done == self.shards_total {
            "complete"
        } else if self.shards_done > 0 {
            "partial"
        } else {
            "pending"
        }
    }
}

/// Resumable sweep state for one (function, kind) pair: the set of
/// per-shard verdicts recorded so far, bound to one shard partition.
#[derive(Debug, Clone)]
pub struct CertState {
    func: String,
    kind: String,
    shard_bits: u32,
    verdicts: BTreeMap<u32, ShardVerdict>,
}

fn checked_shard_bits(shard_bits: u32) -> Result<u32, CertError> {
    if (8..=32).contains(&shard_bits) {
        Ok(shard_bits)
    } else {
        Err(CertError::Config(format!(
            "shard_bits {shard_bits} outside supported range 8..=32"
        )))
    }
}

impl CertState {
    /// Fresh, empty sweep state.
    pub fn new(func: &str, kind: &str, shard_bits: u32) -> Result<CertState, CertError> {
        Ok(CertState {
            func: func.to_string(),
            kind: kind.to_string(),
            shard_bits: checked_shard_bits(shard_bits)?,
            verdicts: BTreeMap::new(),
        })
    }

    /// The function name this state certifies.
    pub fn func(&self) -> &str {
        &self.func
    }

    /// The representation kind ("float32", "posit32", ...).
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Shard size exponent.
    pub fn shard_bits(&self) -> u32 {
        self.shard_bits
    }

    /// Number of shards in the full 2^32 partition.
    pub fn shard_count(&self) -> u64 {
        1u64 << (32 - self.shard_bits)
    }

    /// Checkpoint file path for this state under `dir`.
    pub fn checkpoint_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("cert-{}-{}.ckpt", self.kind, self.func))
    }

    /// Loads existing state from `dir` if a checkpoint exists, otherwise
    /// returns a fresh state. A stale `.tmp` sibling left by a run killed
    /// mid-write is removed (the rename never happened, so the main file
    /// — or its absence — is the authoritative state). A checkpoint with
    /// a different format version, function binding or shard size is a
    /// typed [`CertError::Checkpoint`].
    pub fn load_or_new(dir: &Path, func: &str, kind: &str, shard_bits: u32) -> Result<CertState, CertError> {
        let state = CertState::new(func, kind, shard_bits)?;
        let path = state.checkpoint_path(dir);
        let tmp = path.with_extension("tmp");
        if tmp.exists() {
            std::fs::remove_file(&tmp)
                .map_err(|e| CertError::Io(format!("remove stale {}: {e}", tmp.display())))?;
        }
        if !path.exists() {
            return Ok(state);
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CertError::Io(format!("read {}: {e}", path.display())))?;
        state.parse_checkpoint(&text, &path)
    }

    fn parse_checkpoint(mut self, text: &str, path: &Path) -> Result<CertState, CertError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| {
            CertError::Checkpoint(format!("{}: empty checkpoint", path.display()))
        })?;
        let expect = format!(
            "{CERT_MAGIC} kind={} func={} shard_bits={} shards={}",
            self.kind,
            self.func,
            self.shard_bits,
            self.shard_count(),
        );
        if header != expect {
            // Distinguish a format-version bump from a binding mismatch:
            // the former means "this tool can't read the file", the
            // latter "this file belongs to a different sweep".
            let msg = if !header.starts_with(CERT_MAGIC) {
                format!(
                    "{}: unsupported checkpoint version (header {header:?}, this build reads {CERT_MAGIC:?})",
                    path.display(),
                )
            } else {
                format!(
                    "{}: checkpoint bound to a different sweep (header {header:?}, expected {expect:?}); \
                     delete the file to restart",
                    path.display(),
                )
            };
            return Err(CertError::Checkpoint(msg));
        }
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let v = parse_verdict_line(line)
                .map_err(|m| CertError::Checkpoint(format!("{}: {m}", path.display())))?;
            if u64::from(v.shard) >= self.shard_count() {
                return Err(CertError::Checkpoint(format!(
                    "{}: shard {} out of range (domain has {} shards)",
                    path.display(),
                    v.shard,
                    self.shard_count(),
                )));
            }
            self.verdicts.insert(v.shard, v);
        }
        Ok(self)
    }

    /// Writes the state to its checkpoint file under `dir` (created if
    /// missing) with the tmp+rename discipline: an interrupted save
    /// leaves the previous checkpoint intact, never a torn file.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, CertError> {
        use std::fmt::Write as _;
        std::fs::create_dir_all(dir)
            .map_err(|e| CertError::Io(format!("create {}: {e}", dir.display())))?;
        let path = self.checkpoint_path(dir);
        let mut text = format!(
            "{CERT_MAGIC} kind={} func={} shard_bits={} shards={}\n",
            self.kind,
            self.func,
            self.shard_bits,
            self.shard_count(),
        );
        for v in self.verdicts.values() {
            let _ = write!(text, "{:08x} {:016x} ", v.shard, v.mismatches);
            push_opt_bits(&mut text, v.first_mismatch);
            let _ = write!(text, " {:016x} {:016x} ", v.oracle_checked, v.oracle_mismatches);
            push_opt_bits(&mut text, v.first_oracle_mismatch);
            text.push('\n');
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text)
            .map_err(|e| CertError::Io(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| CertError::Io(format!("rename into {}: {e}", path.display())))?;
        Ok(path)
    }

    /// Records (or overwrites) one shard's verdict.
    pub fn record(&mut self, v: ShardVerdict) -> Result<(), CertError> {
        if u64::from(v.shard) >= self.shard_count() {
            return Err(CertError::Config(format!(
                "shard {} out of range (domain has {} shards)",
                v.shard,
                self.shard_count(),
            )));
        }
        self.verdicts.insert(v.shard, v);
        Ok(())
    }

    /// The recorded verdict for `shard`, if any.
    pub fn verdict(&self, shard: u32) -> Option<&ShardVerdict> {
        self.verdicts.get(&shard)
    }

    /// Shard indices without a recorded verdict, ascending.
    pub fn remaining(&self) -> Vec<u32> {
        (0..self.shard_count() as u32).filter(|s| !self.verdicts.contains_key(s)).collect()
    }

    /// Aggregates the recorded verdicts into manifest material.
    pub fn summary(&self) -> CertSummary {
        let mut s = CertSummary {
            shards_total: self.shard_count(),
            shards_done: self.verdicts.len() as u64,
            inputs_checked: (self.verdicts.len() as u64) << self.shard_bits,
            mismatches: 0,
            first_mismatch: None,
            oracle_checked: 0,
            oracle_mismatches: 0,
            first_oracle_mismatch: None,
        };
        for v in self.verdicts.values() {
            s.mismatches += v.mismatches;
            s.oracle_checked += v.oracle_checked;
            s.oracle_mismatches += v.oracle_mismatches;
            if s.first_mismatch.is_none() {
                s.first_mismatch = v.first_mismatch;
            }
            if s.first_oracle_mismatch.is_none() {
                s.first_oracle_mismatch = v.first_oracle_mismatch;
            }
        }
        s
    }

    /// Recorded shard indices as a compact range list (`"0-127,200"`),
    /// or `"-"` when nothing is recorded yet — the manifest's
    /// human-readable coverage column.
    pub fn done_ranges(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut run: Option<(u32, u32)> = None;
        for &s in self.verdicts.keys() {
            run = match run {
                Some((lo, hi)) if s == hi + 1 => Some((lo, s)),
                Some((lo, hi)) => {
                    flush_range(&mut out, lo, hi);
                    Some((s, s))
                }
                None => Some((s, s)),
            };
        }
        if let Some((lo, hi)) = run {
            flush_range(&mut out, lo, hi);
        }
        if out.is_empty() {
            let _ = write!(out, "-");
        }
        out
    }
}

fn flush_range(out: &mut String, lo: u32, hi: u32) {
    use std::fmt::Write as _;
    if !out.is_empty() {
        out.push(',');
    }
    if lo == hi {
        let _ = write!(out, "{lo}");
    } else {
        let _ = write!(out, "{lo}-{hi}");
    }
}

fn push_opt_bits(text: &mut String, bits: Option<u32>) {
    use std::fmt::Write as _;
    match bits {
        Some(b) => {
            let _ = write!(text, "{b:08x}");
        }
        None => text.push('-'),
    }
}

fn parse_hex_u64(tok: &str) -> Result<u64, String> {
    u64::from_str_radix(tok, 16).map_err(|_| format!("bad hex field {tok:?}"))
}

fn parse_opt_bits(tok: &str) -> Result<Option<u32>, String> {
    if tok == "-" {
        return Ok(None);
    }
    u32::from_str_radix(tok, 16).map(Some).map_err(|_| format!("bad bit-pattern field {tok:?}"))
}

fn parse_verdict_line(line: &str) -> Result<ShardVerdict, String> {
    let mut toks = line.split(' ');
    let mut next = || toks.next().ok_or_else(|| format!("truncated verdict line {line:?}"));
    let shard = parse_hex_u64(next()?)?;
    let shard = u32::try_from(shard).map_err(|_| format!("shard index overflow in {line:?}"))?;
    let mismatches = parse_hex_u64(next()?)?;
    let first_mismatch = parse_opt_bits(next()?)?;
    let oracle_checked = parse_hex_u64(next()?)?;
    let oracle_mismatches = parse_hex_u64(next()?)?;
    let first_oracle_mismatch = parse_opt_bits(next()?)?;
    if toks.next().is_some() {
        return Err(format!("trailing fields in verdict line {line:?}"));
    }
    Ok(ShardVerdict {
        shard,
        mismatches,
        first_mismatch,
        oracle_checked,
        oracle_mismatches,
        first_oracle_mismatch,
    })
}

/// Oracle spot-check budget for [`sweep_shard`]: `samples` inputs of the
/// shard, chosen by a deterministic (seeded, thread-count-independent)
/// stride-free PRNG, are compared `reference` vs `oracle`.
pub struct OracleBudget<'a> {
    /// Bit transfer function of the Ziv oracle (same output
    /// canonicalization as the other two closures).
    pub oracle: &'a (dyn Fn(u32) -> u32 + Sync),
    /// Spot-checks per selected shard.
    pub samples: u32,
    /// Base seed; the shard index is mixed in, so every shard draws a
    /// distinct but reproducible sample set.
    pub seed: u64,
}

/// splitmix64: tiny, seedable, good enough for picking sample offsets.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sweeps one shard: compares `fast(bits)` against `reference(bits)` for
/// every bit pattern of the shard (parallelized over [`crate::par`]'s
/// chunked engine; the merge is chunk-ordered, so `first_mismatch` is
/// the lowest mismatching pattern for any thread count), then runs the
/// optional oracle spot-check serially. The closures map input bit
/// pattern to output bit pattern and are expected to canonicalize
/// don't-care outputs (e.g. NaN payloads) identically.
pub fn sweep_shard<F, G>(
    shard: u32,
    shard_bits: u32,
    threads: usize,
    fast: F,
    reference: G,
    oracle: Option<&OracleBudget<'_>>,
) -> Result<ShardVerdict, CertError>
where
    F: Fn(u32) -> u32 + Sync,
    G: Fn(u32) -> u32 + Sync,
{
    let shard_bits = checked_shard_bits(shard_bits)?;
    let shard_len = 1u64 << shard_bits;
    let shard_count = 1u64 << (32 - shard_bits);
    if u64::from(shard) >= shard_count {
        return Err(CertError::Config(format!(
            "shard {shard} out of range (domain has {shard_count} shards)"
        )));
    }
    let base = u64::from(shard) << shard_bits;
    let _span = CERT_SHARD_SPAN.start();

    let shard_len_usize = shard_len as usize;
    let chunk = crate::par::default_chunk_size(shard_len_usize, threads);
    let per_chunk = crate::par::run_chunked(shard_len_usize, chunk, threads, |_, range| {
        let mut mismatches = 0u64;
        let mut first: Option<u32> = None;
        for off in range {
            let bits = (base + off as u64) as u32;
            if fast(bits) != reference(bits) {
                mismatches += 1;
                if first.is_none() {
                    first = Some(bits);
                }
            }
        }
        (mismatches, first)
    });
    let mismatches: u64 = per_chunk.iter().map(|(m, _)| m).sum();
    let first_mismatch = per_chunk.iter().find_map(|(_, f)| *f);

    let mut oracle_checked = 0u64;
    let mut oracle_mismatches = 0u64;
    let mut first_oracle_mismatch: Option<u32> = None;
    if let Some(budget) = oracle {
        let mut rng = budget.seed ^ (u64::from(shard).wrapping_mul(0xA076_1D64_78BD_642F));
        for _ in 0..budget.samples {
            let off = splitmix64(&mut rng) & (shard_len - 1);
            let bits = (base + off) as u32;
            oracle_checked += 1;
            if reference(bits) != (budget.oracle)(bits) {
                oracle_mismatches += 1;
                if first_oracle_mismatch.is_none() {
                    first_oracle_mismatch = Some(bits);
                }
            }
        }
        CERT_ORACLE_CHECKED.add(oracle_checked);
        CERT_ORACLE_MISMATCHES.add(oracle_mismatches);
    }

    CERT_INPUTS.add(shard_len);
    CERT_MISMATCHES.add(mismatches);
    CERT_SHARDS.add(1);
    Ok(ShardVerdict {
        shard,
        mismatches,
        first_mismatch,
        oracle_checked,
        oracle_mismatches,
        first_oracle_mismatch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rlibm-certify-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    #[test]
    fn sweep_finds_planted_mismatches_in_order() {
        // shard 3 of 2^16-sized shards covers 0x0003_0000..0x0004_0000.
        let fast = |b: u32| if b == 0x0003_0102 || b == 0x0003_0101 { !b } else { b };
        let v = sweep_shard(3, 16, 4, fast, |b: u32| b, None).expect("sweep");
        assert_eq!(v.mismatches, 2);
        assert_eq!(v.first_mismatch, Some(0x0003_0101));
        assert_eq!(v.oracle_checked, 0);
        assert!(!v.clean());

        let clean = sweep_shard(3, 16, 4, |b: u32| b, |b: u32| b, None).expect("sweep");
        assert_eq!(clean.mismatches, 0);
        assert!(clean.clean());
    }

    #[test]
    fn oracle_spot_check_is_deterministic_and_counts() {
        let budget = OracleBudget { oracle: &|b: u32| b ^ 1, samples: 40, seed: 7 };
        let v1 = sweep_shard(0, 16, 1, |b: u32| b, |b: u32| b, Some(&budget)).expect("sweep");
        let v2 = sweep_shard(0, 16, 4, |b: u32| b, |b: u32| b, Some(&budget)).expect("sweep");
        assert_eq!(v1, v2, "oracle sampling must not depend on thread count");
        assert_eq!(v1.oracle_checked, 40);
        assert_eq!(v1.oracle_mismatches, 40);
        assert!(v1.first_oracle_mismatch.is_some());
        assert_eq!(v1.mismatches, 0);
    }

    #[test]
    fn state_roundtrip_resume_and_ranges() {
        let dir = tmpdir("roundtrip");
        let mut st = CertState::new("exp", "float32", 24).expect("state");
        assert_eq!(st.shard_count(), 256);
        assert_eq!(st.remaining().len(), 256);
        assert_eq!(st.done_ranges(), "-");
        for shard in [0u32, 1, 2, 7, 255] {
            st.record(ShardVerdict {
                shard,
                mismatches: if shard == 7 { 3 } else { 0 },
                first_mismatch: (shard == 7).then_some(0x0700_0001),
                oracle_checked: 16,
                oracle_mismatches: 0,
                first_oracle_mismatch: None,
            })
            .expect("record");
        }
        st.save(&dir).expect("save");
        assert_eq!(st.done_ranges(), "0-2,7,255");

        let back = CertState::load_or_new(&dir, "exp", "float32", 24).expect("load");
        assert_eq!(back.remaining().len(), 251);
        assert!(!back.remaining().contains(&7));
        assert_eq!(back.verdict(7).and_then(|v| v.first_mismatch), Some(0x0700_0001));
        let s = back.summary();
        assert_eq!(s.shards_done, 5);
        assert_eq!(s.inputs_checked, 5 << 24);
        assert_eq!(s.mismatches, 3);
        assert_eq!(s.first_mismatch, Some(0x0700_0001));
        assert_eq!(s.oracle_checked, 80);
        assert_eq!(s.status(), "partial");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_is_removed_on_load() {
        let dir = tmpdir("staletmp");
        let st = CertState::new("ln", "float32", 24).expect("state");
        let tmp = st.checkpoint_path(&dir).with_extension("tmp");
        std::fs::write(&tmp, "torn half-write").expect("plant tmp");
        let loaded = CertState::load_or_new(&dir, "ln", "float32", 24).expect("load");
        assert!(!tmp.exists(), "stale tmp must be cleaned up");
        assert_eq!(loaded.remaining().len(), 256);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_and_binding_mismatches_are_typed() {
        let dir = tmpdir("mismatch");
        let mut st = CertState::new("ln", "float32", 24).expect("state");
        st.record(ShardVerdict {
            shard: 0,
            mismatches: 0,
            first_mismatch: None,
            oracle_checked: 0,
            oracle_mismatches: 0,
            first_oracle_mismatch: None,
        })
        .expect("record");
        let path = st.save(&dir).expect("save");

        // Same file, different binding: shard size.
        let err = CertState::load_or_new(&dir, "ln", "float32", 20).unwrap_err();
        assert!(matches!(err, CertError::Checkpoint(_)), "got {err:?}");
        assert!(err.to_string().contains("different sweep"), "{err}");

        // Future format version.
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, text.replacen("rlibm-cert v1", "rlibm-cert v9", 1))
            .expect("rewrite");
        let err = CertState::load_or_new(&dir, "ln", "float32", 24).unwrap_err();
        assert!(err.to_string().contains("unsupported checkpoint version"), "{err}");

        // Garbled verdict line.
        std::fs::write(
            &path,
            format!("{CERT_MAGIC} kind=float32 func=ln shard_bits=24 shards=256\nzz zz zz\n"),
        )
        .expect("rewrite");
        let err = CertState::load_or_new(&dir, "ln", "float32", 24).unwrap_err();
        assert!(matches!(err, CertError::Checkpoint(_)), "got {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_bits_and_indices_are_validated() {
        assert!(CertState::new("ln", "float32", 4).is_err());
        assert!(CertState::new("ln", "float32", 33).is_err());
        let mut st = CertState::new("ln", "float32", 24).expect("state");
        let v = ShardVerdict {
            shard: 256,
            mismatches: 0,
            first_mismatch: None,
            oracle_checked: 0,
            oracle_mismatches: 0,
            first_oracle_mismatch: None,
        };
        assert!(st.record(v).is_err());
        assert!(sweep_shard(256, 24, 1, |b: u32| b, |b: u32| b, None).is_err());
    }
}
