#!/usr/bin/env bash
# Paired benchmark runner: measures a parent revision against HEAD with
# the repo benchmark (benchmark/), in alternating pairs.
#
#   scripts/paired.sh [-n N] [-s SECONDS] <parent-rev> <workload>...
#
# Builds <parent-rev> and HEAD in two git worktrees under ${TMPDIR:-/tmp}
# (each with its own target directory), then for each workload runs N
# pairs of `rlibm-benchmark --workload W --seconds SECONDS`, one process
# per side, flipping which side runs first every pair. For every
# end-to-end metric in BENCHMARK.json it prints each side's median and
# quartiles (q1, q3), the median's change and the pairs HEAD won (strictly
# better in the metric's direction) out of N. Every run's values are
# printed as it finishes. The worktrees are removed on exit.
#
# N defaults to 10 and SECONDS to 10 (the benchmark's own default).

set -euo pipefail

usage() {
    echo "usage: $0 [-n N] [-s SECONDS] <parent-rev> <workload>..." >&2
    exit 2
}

pairs=10
seconds=10
while getopts "n:s:" opt; do
    case $opt in
        n) pairs=$OPTARG ;;
        s) seconds=$OPTARG ;;
        *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -ge 2 ] || usage
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
parent_rev=$1
shift
workloads=("$@")

repo=$(git rev-parse --show-toplevel)
parent_sha=$(git -C "$repo" rev-parse --verify "$parent_rev^{commit}")
head_sha=$(git -C "$repo" rev-parse --verify HEAD)
work=$(mktemp -d "${TMPDIR:-/tmp}/paired.XXXXXX")

cleanup() {
    for side in parent head; do
        if [ -d "$work/$side" ]; then
            git -C "$repo" worktree remove --force "$work/$side" || true
        fi
    done
    git -C "$repo" worktree prune || true
    rm -rf "$work"
}
trap cleanup EXIT

# name -> "higher" | "lower", from HEAD's BENCHMARK.json end_to_end list.
declare -A better
while read -r name dir; do
    better[$name]=$dir
done < <(sed -n 's/.*"name": "\([^"]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound".*/\1 \2/p' \
    "$repo/BENCHMARK.json")
[ ${#better[@]} -gt 0 ] || { echo "no end-to-end metrics in BENCHMARK.json" >&2; exit 1; }

for side in parent head; do
    sha=$parent_sha
    [ $side = head ] && sha=$head_sha
    echo "== building $side (${sha:0:10}) in $work/$side" >&2
    git -C "$repo" worktree add --quiet --detach "$work/$side" "$sha"
    cargo build --release --offline --quiet --manifest-path "$work/$side/benchmark/Cargo.toml"
    # The first run builds the traced variant too; do it here, not in a
    # measured run.
    "$work/$side/benchmark/target/release/rlibm-benchmark" --smoke \
        --workload "${workloads[0]}" > /dev/null
done

# One benchmark process; appends "<workload> <pair> <side> <metric> <value>"
# per end-to-end metric to $work/runs.
run_one() {
    local side=$1 workload=$2 pair=$3 out
    out=$("$work/$side/benchmark/target/release/rlibm-benchmark" \
        --workload "$workload" --seconds "$seconds") || {
        echo "$side $workload pair $pair failed" >&2
        exit 1
    }
    awk -v w="$workload" -v p="$pair" -v s="$side" \
        '$1 == "metric" && $2 == "e2e" { print w, p, s, $3, $4 }' <<< "$out" \
        | tee -a "$work/runs" \
        | awk '{ printf "%s %s=%s", (NR == 1 ? "pair " $2 " " $1 " " $3 ":" : ""), $4, $5 } END { print "" }' >&2
}

for workload in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then
            run_one parent "$workload" "$i"
            run_one head "$workload" "$i"
        else
            run_one head "$workload" "$i"
            run_one parent "$workload" "$i"
        fi
    done
done

# Quantile with linear interpolation between order statistics.
stats() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   h, lo) { h = 1 + p * (NR - 1); lo = int(h); return v[lo] + (h - lo) * (v[lo + 1 < NR ? lo + 1 : NR] - v[lo]) }
        END { printf "%.4g %.4g %.4g\n", q(0.5), q(0.25), q(0.75) }'
}

echo
echo "parent ${parent_sha:0:10} vs HEAD ${head_sha:0:10}: $pairs pairs of ${seconds} s per workload"
printf '%-14s %-12s %-34s %-34s %8s %6s\n' workload metric "parent median [q1, q3]" \
    "HEAD median [q1, q3]" change wins
for workload in "${workloads[@]}"; do
    for metric in $(awk -v w="$workload" '$1 == w { print $4 }' "$work/runs" | sort -u); do
        read -r pm pq1 pq3 < <(awk -v w="$workload" -v m="$metric" \
            '$1 == w && $3 == "parent" && $4 == m { print $5 }' "$work/runs" | stats)
        read -r hm hq1 hq3 < <(awk -v w="$workload" -v m="$metric" \
            '$1 == w && $3 == "head" && $4 == m { print $5 }' "$work/runs" | stats)
        wins=$(awk -v w="$workload" -v m="$metric" -v dir="${better[$metric]:-higher}" '
            $1 == w && $4 == m { val[$2, $3] = $5; pair[$2] = 1 }
            END {
                for (p in pair) {
                    d = val[p, "head"] - val[p, "parent"]
                    if ((dir == "higher" && d > 0) || (dir == "lower" && d < 0)) won++
                }
                print won + 0
            }' "$work/runs")
        change=$(awk -v a="$pm" -v b="$hm" 'BEGIN { if (a == 0) print "n/a"; else printf "%+.1f%%", 100 * (b / a - 1) }')
        printf '%-14s %-12s %-34s %-34s %8s %6s\n' "$workload" "$metric" \
            "$pm [$pq1, $pq3]" "$hm [$hq1, $hq3]" "$change" "$wins/$pairs"
    done
done
