#!/usr/bin/env bash
# Interleaved A/B comparison of this working tree (head) against REV (base).
#
#   bench/load/ab.sh REV [PAIRS] [SECONDS] [WORKLOAD...]
#
# REV is exported with `git archive` into bench/load/_run/ab-<time>/ and
# given this tree's benchmark (bench/load and BENCHMARK.json), so both
# sides run identical benchmark code.  Each pair runs every workload on
# both sides with the pair number as seed; odd pairs run base first,
# even pairs head first.  Defaults: 10 pairs of 10-second runs over all
# four workloads.  The summary gives, per workload and printed metric,
# each side's quartiles, the head's win count and a verdict: for a
# metric with a bound in BENCHMARK.json, "regression" (checked first)
# means the head's median is worse by more than the bound; "gain"
# ("loss") needs 9 wins (losses) in 10 and a median gap wider than the
# base's quartile spread; "unresolved" means the base's own spread is
# wider than the bound and not every head run beats every base run.
set -euo pipefail
rev=${1:?usage: bench/load/ab.sh REV [PAIRS] [SECONDS] [WORKLOAD...]}
pairs=${2:-10}
seconds=${3:-10}
shift $(($# < 3 ? $# : 3))
workloads=${*:-read-hot oltp-mix tx-contended analytic-writes}

root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
out=$root/bench/load/_run/ab-$(date +%Y%m%d-%H%M%S)
base=$out/base-tree
mkdir -p "$out/results" "$base"
git archive "$rev" | tar -x -C "$base"
rm -rf "$base/bench/load"
mkdir -p "$base/bench/load"
cp bench/load/*.ml bench/load/dune bench/load/run.sh "$base/bench/load/"
cp BENCHMARK.json "$base/"

run() { # side pair workload
  local dir=$root log=$out/results/$1-$3-$2.log
  [ "$1" = base ] && dir=$base
  if ! (cd "$dir" && bash bench/load/run.sh --workload "$3" --seed "$2" \
        --seconds "$seconds" --trace 0 --allow-dirty) > "$log" 2> "$log.err"; then
    echo "ab.sh: $1 $3 seed $2 failed, see $log.err" >&2
    exit 1
  fi
  echo "pair $2 $1 $3 done"
}

for p in $(seq 1 "$pairs"); do
  for w in $workloads; do
    if [ $((p % 2)) -eq 1 ]; then run base "$p" "$w"; run head "$p" "$w"
    else run head "$p" "$w"; run base "$p" "$w"; fi
  done
done
rm -rf "$base"
./_build/default/bench/load/load.exe --ab-report "$out/results"
