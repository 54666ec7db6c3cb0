#!/usr/bin/env bash
# Hermetic CI for the rlibm-rs workspace.
#
# The build policy is ZERO registry dependencies: everything resolves
# from path dependencies, so every step below runs with --offline and
# must succeed on a machine with no network access. If a registry
# dependency ever sneaks back into a manifest, the first step fails at
# resolution time — the regression this script exists to catch.

set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release --offline =="
cargo build --workspace --release --offline

echo "== cargo test --workspace --release -q --offline =="
# Every member crate's own tests, not just the root facade package (the
# workspace's only default member).
cargo test --workspace --release -q --offline

echo "== oracle pin: every oracle result stays bit-identical =="
# Correct rounding is unique, so a change to how rlibm-mp's elem.rs
# evaluates a function must move no oracle result. The ignored test
# hashes all 2^16 binary16 patterns x 10 functions through both Ziv
# entries plus seeded f32 and posit32 samples (~10 s in release).
cargo test -q --offline --release -p rlibm-mp --test oracle_pin -- --ignored

echo "== generator pin: every generated coefficient stays bit-identical =="
# The ignored test runs gen_polynomial on gen_bench's ten fp16 domains and
# hashes every coefficient's bit pattern (a few seconds in release): a
# change to the LP, the CEGIS loop or the oracle must move no coefficient.
cargo test -q --offline --release -p rlibm-bench --test gen_pin -- --ignored

echo "== stride-sample pin: no output bit moves, scalar and simd =="
# The ignored stride sample hashes every registry row's scalar, dd and
# batched outputs over a stride of the whole input domain (~45 s per
# build in release): the evidence behind every "no output bit moved"
# claim. Run it with the portable slice path and with the AVX2 stages.
cargo test -q --offline --release -p rlibm --test two_tier_identity \
    -- --ignored stride_sample_outputs_are_pinned
cargo test -q --offline --release -p rlibm --features simd --test two_tier_identity \
    -- --ignored stride_sample_outputs_are_pinned

echo "== cargo clippy -- -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc: warning-free on the crates that already are =="
# A doc link to a deleted or renamed item is a rustdoc warning, so this
# catches docs that outlive the code they cite. rlibm-mp, rlibm-lp,
# rlibm-math and rlibm-serve still emit warnings and stay out until they
# are clean.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline \
    -p rlibm-core -p rlibm-fp -p rlibm-posit -p rlibm-obs -p rlibm-bench -p rlibm

echo "== panic-free gate: library crates deny unwrap/expect/panic =="
# The failure-model policy (DESIGN.md): every reachable failure in the
# library crates is a typed error. --lib scopes the gate to library
# targets; tests, benches and examples stay exempt. assert!-style
# invariant checks and unreachable!() on proven-impossible arms are
# intentionally still allowed.
cargo clippy --offline --lib \
    -p rlibm-obs -p rlibm-fp -p rlibm-posit -p rlibm-mp -p rlibm-lp \
    -p rlibm-core -p rlibm-math -p rlibm-serve \
    -- -D warnings \
    -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic

echo "== packed-table determinism: rebuild via build.rs, diff the pin =="
# The lookup tables are emitted at build time (crates/libm/build.rs)
# from the 160-bit oracle and bit-packed; the committed tables.fnv pins
# their exact bytes. Force a regeneration and diff the checksum the
# build script stamped into its emission against the committed pin —
# a mismatch means the generated tables drifted from what every
# certification artifact was computed against. (The build script itself
# also fails hard on a mismatch; this leg keeps the property visible
# and greppable in CI output.)
touch crates/libm/build.rs
cargo build --release --offline -p rlibm-math
GEN_TABLES=$(ls -t target/release/build/rlibm-math-*/out/packed_tables.rs | head -1)
GEN_FNV=$(grep -o 'TABLES_FNV64: u64 = 0x[0-9a-f]*' "$GEN_TABLES" | grep -o '0x[0-9a-f]*')
PINNED_FNV=$(cat crates/libm/tables.fnv)
if [ "$GEN_FNV" != "$PINNED_FNV" ]; then
    echo "FAIL: regenerated table checksum $GEN_FNV != pinned $PINNED_FNV"
    exit 1
fi
echo "regenerated tables match pin $PINNED_FNV"

echo "== tier counters: delta accounting in both telemetry configs =="
# Every in-domain call ships from exactly one of the two tiers (the
# kernel's banded fast step, counted as `prefix`, or dd), scalar and
# batched alike, and the batched driver resolves exactly its special and
# band-rejected lanes through the scalar entry; with telemetry off the
# counters must stay zero and the outputs bit-identical. Run the delta
# suite in both configurations (the simd leg below runs it on the AVX2
# lane).
cargo test -q --offline --release -p rlibm --features telemetry --test tier_counters
cargo test -q --offline --release -p rlibm --test tier_counters

echo "== telemetry-off identity: instrumentation changes no output bit =="
# The workspace-wide test run above unifies features with rlibm-bench and
# so runs with telemetry ON; building the facade crate alone leaves telemetry
# OFF. The telemetry test suite pins the runtime library's outputs on a
# fixed sweep to one checksum constant, so passing in both configurations
# proves the instrumented and uninstrumented libraries are bit-identical.
cargo test -q --offline --release -p rlibm --test telemetry

echo "== simd feature leg: build, bit-identity matrix, clippy =="
# The AVX2 staged slice kernels (crates/libm/src/slice_simd.rs) must be
# drop-in bit-identical to the scalar reference. The workspace test run
# above already pins the batched-output checksum with default features;
# this leg re-runs the identity suite with `simd` on — same pinned
# constant, so a single diverging output bit fails one of the two runs —
# and the special-value matrix, so NaN payloads, infinities, subnormals
# and saturating inputs also reach the AVX2 dispatch through the batched
# entries. The library's own unit tests then run with the feature on —
# the AVX2 module's tests (vector codec, safety masks, partial chunks,
# posit and f32 drivers against the scalar entries) only compile there —
# and the tier-counter suite checks the AVX2 drivers' tier and rescalar
# accounting. Clippy with the feature keeps the intrinsics cfg
# warning-clean.
cargo build --workspace --release --offline --features rlibm/simd,rlibm-bench/simd
cargo test -q --offline --release -p rlibm --features simd \
    --test two_tier_identity --test special_values
cargo test -q --offline --release -p rlibm-math --features simd --lib
cargo test -q --offline --release -p rlibm --features simd,telemetry --test tier_counters
cargo clippy --workspace --all-targets --offline \
    --features rlibm/simd,rlibm-bench/simd -- -D warnings

echo "== simd inlining gate: AVX2 stages and scalar ladders stay call-free =="
# Every kernel is one generic source instantiated for the f64 lane and the
# AVX2 lane (crates/libm/src/lane.rs). The AVX2 stages only run at AVX2
# speed if everything in them inlines: a closure LLVM keeps out of line
# has no AVX2 feature, so each intrinsic in it becomes a call. Disassemble
# the simd release build of a binary that links the stages (the
# two_tier_identity test binary of the facade crate alone, so telemetry is
# off as it ships: the instrumented build calls its counters) and fail if
#  - any AVX2 stage (`lane::avx2::avx2_stage`, which holds both the
#    kernel stages and the round-safe + narrow stages) contains a call or
#    jumps into another function, or
#  - any of the 18 scalar entry points (the inlined f32/posit32 entries,
#    whose fast step ships >99.9% of calls) calls anything but the cold
#    `registry::escalate` (the dd rung) and its dd kernels, or any
#    `escalate` calls anything but the dd rung: the dd kernels and
#    round-to-odd, their `fma`, and the table index bounds-fail panic.
#    (Round-to-odd steps to its odd neighbour with one bit operation, so
#    the next_up/down helpers are not on the allowlist.)
stage_gate() {
    local bin=$1 dis
    dis=$(mktemp)
    { nm -C "$bin" | awk '{a = $1; sub(/^0+/, "", a); $1 = ""; $2 = ""; sub(/^  /, ""); print "SYM", a, $0}'
      objdump -R "$bin" | awk '
          $2 == "R_X86_64_RELATIVE" { s = $1; sub(/^0+/, "", s); a = $3; sub(/^\*ABS\*\+0x0*/, "", a); print "GOT", s, a }
          $2 == "R_X86_64_GLOB_DAT" || $2 == "R_X86_64_JUMP_SLOT" { s = $1; sub(/^0+/, "", s); print "GOTNAME", s, $3 }'
      objdump -d -C --no-show-raw-insn "$bin"; } > "$dis"
    awk '
      $1 == "SYM" { a = $2; $1 = ""; $2 = ""; sub(/^  /, ""); name[a] = $0; next }
      $1 == "GOT" { got[$2] = $3; next }
      $1 == "GOTNAME" { gotname[$2] = $3; next }
      function callee(line,   s) {
          if (match(line, /# [0-9a-f]+ </)) {
              s = substr(line, RSTART + 2); sub(/ .*/, "", s)
              if (s in gotname) return gotname[s]
              if ((s in got) && (got[s] in name)) return name[got[s]]
              return "?" s
          }
          if (match(line, /<.*>/)) { s = substr(line, RSTART + 1, RLENGTH - 2); sub(/\+0x[0-9a-f]+$/, "", s); return s }
          return "?"
      }
      /^[0-9a-f]+ <.*>:$/ {
          fn = $0; sub(/^[0-9a-f]+ </, "", fn); sub(/>:$/, "", fn)
          stage = index(fn, "rlibm_math::lane::avx2::avx2_stage") == 1
          entry = fn ~ /^rlibm_math::(float::(log::(ln|log2|log10)|exp::(exp|exp2|exp10)|hyper::(sinh|cosh)|trig::(sinpi|cospi))|posit::(ln|log2|log10|exp|exp2|exp10|sinh|cosh)_p32)$/
          escalate = fn == "rlibm_math::registry::escalate"
          stages += stage; entries += entry; escalates += escalate
          next
      }
      stage && /\t(call|jmp) / {
          c = callee($0)
          if ($0 ~ /\tcall/ || c != fn) { print "FAIL: AVX2 stage calls " c ": " $0; bad = 1 }
      }
      (entry || escalate) && /\t(call|jmp) / {
          c = callee($0)
          dd = c ~ /(_kernel|_dd|::dd|exp_combined|to_f64_round_odd|^fma(@.*)?$|panic|_fail$)/
          if (c != fn && !dd && !(entry && c == "rlibm_math::registry::escalate")) {
              print "FAIL: " fn " calls " c; bad = 1
          }
      }
      END {
          if (stages == 0) { print "FAIL: no AVX2 stage symbols"; bad = 1 }
          if (entries != 18) { print "FAIL: " entries " of 18 scalar entry points found"; bad = 1 }
          if (escalates == 0) { print "FAIL: no escalate symbols"; bad = 1 }
          if (!bad) print stages " AVX2 stages call-free; 18 scalar entry points and " escalates " escalations call only their dd rung"
          exit bad
      }' "$dis"
    local status=$?
    rm -f "$dis"
    return $status
}
GATE_BIN=$(cargo test --offline --release -p rlibm --features simd --test two_tier_identity \
    --no-run --message-format=json 2>/dev/null \
    | grep -o '"executable":"[^"]*two_tier_identity[^"]*"' | tail -1 \
    | sed 's/"executable":"//; s/"$//')
stage_gate "$GATE_BIN"

echo "== fault-injection smoke: corrupted fast paths never mis-round =="
# Seeded corruption at all 18 tier-1 kernel sites, checked bit-for-bit
# against the dd reference (which has no injection site). The full
# acceptance bar is 100k injections/function (run the bin with no args);
# CI uses a 5k smoke target to stay fast. Exits nonzero on any escaped
# corruption or injection shortfall.
cargo run --release --offline -p rlibm-core --features fault \
    --bin fault_sweep -- 5000

echo "== serve fault leg: chaos-injected supervision tests =="
# The workspace test run above unifies features WITHOUT rlibm-serve's
# `fault` (production builds carry no serve-layer injection sites), so
# the chaos-dependent serve tests — panic salvage/restart, restart-budget
# exhaustion, corruption detection — only compile and run here. Clippy
# with the feature keeps the injection code under the same panic-free
# gate as the rest of the serve library (the one deliberate chaos panic
# site carries a scoped allow).
cargo test -q --offline --release -p rlibm-serve --features fault
cargo clippy --offline --lib -p rlibm-serve --features fault \
    -- -D warnings \
    -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic
# The workspace clippy run above never enables `fault`, so this lints
# every fault-gated item, tests included: rlibm-math's injection hooks
# (`fault.rs`, the batched driver's `perturb_prefix`) and rlibm-serve's
# chaos code and supervision tests.
cargo clippy --offline --all-targets -p rlibm-serve -p rlibm-math \
    --features rlibm-serve/fault,rlibm-math/fault -- -D warnings
# The bench crate's fault build: serve_report's fault scenarios and its
# kernel-injection count compile only here.
cargo clippy --offline --all-targets -p rlibm-bench --features fault,simd -- -D warnings

echo "== serve fault+telemetry leg: flight recorder under chaos =="
# The fault leg above runs with tracing compiled OUT (flight dumps must
# be absent); this leg turns the `telemetry` feature on so the chaos
# tests additionally assert that panics and corruption dump the flight
# recorder — and that the pinned serve output checksum still holds, the
# bit-identity half of the tracing contract.
cargo test -q --offline --release -p rlibm-serve --features fault,telemetry

echo "== bench smoke: gen_bench --quick + JSON schema =="
# Quick-mode harness run, fully offline, writing under target/ so the
# committed full-run BENCH_*.json files are never clobbered. Each
# harness re-parses and schema-checks its own emission and exits
# non-zero on a malformed document; the grep double-checks the file
# landed with the expected schema tag.
mkdir -p target/bench-smoke
cargo run --release --offline -p rlibm-bench --bin gen_bench -- \
    --quick --out target/bench-smoke/BENCH_gen.quick.json
grep -q '"schema": "rlibm-bench/gen/v1"' target/bench-smoke/BENCH_gen.quick.json

echo "== serve report: serve_report --quick in both builds + committed report check =="
# One scenario table over the supervised serving layer: healthy,
# rescalar harvest, deadline and drain in every build, plus the chaos
# scenarios under `fault` (panic storms with and without restart budget,
# injected stalls, ring corruption, backpressure, kernel faults). Every
# scenario asserts that each request ends as exactly one bit-identical
# completion or one explicitly-reasoned shed, that no tag ends twice and
# that every caught panic was injected, then its own obligations; the bin
# validates its own emission. --check re-validates the committed full
# fault,simd run (balance, zero mismatches, injection total and its 100k
# floor, an exemplar for every shed reason, attribution of every
# workload, flight dumps), so a stale or hand-edited BENCH_serve.json
# fails CI.
cargo run --release --offline -p rlibm-bench --bin serve_report -- \
    --quick --out target/bench-smoke/BENCH_serve.quick.json
cargo run --release --offline -p rlibm-bench --features fault,simd --bin serve_report -- \
    --quick --out target/bench-smoke/BENCH_serve.fault.quick.json
grep -q '"fault": true' target/bench-smoke/BENCH_serve.fault.quick.json
cargo run --release --offline -p rlibm-bench --bin serve_report -- --check BENCH_serve.json

echo "== timing regression gate: committed BENCH_timing vs quick simd run =="
# One timing run (Figures 3-5 and the §4.3 harness) in the configuration
# of the committed full run, simd on. A fresh --quick run must stay
# within the comparator's regression threshold on every row's same-host
# ratio `ratio_batched`: the batched time over the float-libm model (f32
# rows) or over the scalar call (posit32 rows), both timed in the same
# pass. A slice-kernel pessimisation moves the ratio and fails CI here;
# a loaded or slower host moves both of its sides, where absolute
# nanoseconds flaked. Threshold is +60%: quick mode does fewer passes
# and this gate runs on whatever shared hardware CI lands on — it is an
# order-of-magnitude tripwire, while the committed-file protocol
# (EXPERIMENTS.md) remains the precise before/after evidence.
cargo run --release --offline -p rlibm-bench --features simd --bin timing -- \
    --quick --out target/bench-smoke/BENCH_timing.quick.json
cargo run --release --offline -p rlibm-bench --bin bench_compare -- \
    BENCH_timing.json target/bench-smoke/BENCH_timing.quick.json \
    --fields ratio_ --threshold 60

echo "== telemetry smoke: telemetry_report --quick + JSON schema =="
# Exercises every instrumented layer (oracle Ziv loop, LP, polygen,
# validation, runtime fallbacks, batched eval) and snapshot-checks the
# registry; the binary itself asserts the core sections are populated.
cargo run --release --offline -p rlibm-bench --bin telemetry_report -- \
    --quick --out target/bench-smoke/TELEM_report.quick.json
grep -q '"schema": "rlibm-telem/v1"' target/bench-smoke/TELEM_report.quick.json

echo "== certification smoke: special-region shards certify clean =="
# Five special-region shards per (kind, function) at 2^16 geometry —
# signed zeros/subnormals, the 1.0 neighborhood, inf/NaN and the posit
# analogues — fast path vs dd reference bit-for-bit plus a budgeted
# Ziv-oracle sample, fully offline, state wiped each run so the smoke
# re-certifies. Exits nonzero on any mismatch.
cargo run --release --offline -p rlibm-bench --bin certify -- \
    --quick --out target/bench-smoke/CERT_manifest.quick.json
grep -q '"schema": "rlibm-cert/v1"' target/bench-smoke/CERT_manifest.quick.json

echo "== certification manifest check: committed CERT_manifest.json =="
# Re-parses the committed full-run manifest, re-validates the schema,
# byte-compares it against its own canonical re-emission, cross-checks
# the function set against the live dispatch registry, and fails on any
# recorded mismatch.
cargo run --release --offline -p rlibm-bench --bin certify -- \
    --check CERT_manifest.json

echo "== bench_compare smoke: committed BENCH files self-diff clean =="
# A file diffed against itself must report all-1.0 ratios and exit 0;
# nonzero means the comparator (or a committed artifact) broke.
for doc in BENCH_timing.json BENCH_gen.json BENCH_serve.json; do
    cargo run --release --offline -p rlibm-bench --bin bench_compare -- "$doc" "$doc"
done

echo "CI OK"
