#!/bin/sh
# Build and run the benchmark suite, capturing machine-readable results
# in BENCH_results.json at the repository root (or in PATH, the first
# non-flag argument).  The JSON carries a meta block (git sha, domain
# count, units) so numbers are attributable to a tree
# state; results hold name -> ns/run.  Every completed run is also
# appended, as one line, to BENCH_history.jsonl at the repository root:
# the results file is the latest snapshot, the history the trajectory.
#
# A tree with uncommitted changes is refused, since its numbers could
# not be traced back to a commit; pass --allow-dirty to measure it
# anyway (the sha is then stamped with -dirty).
set -e
cd "$(dirname "$0")/.."
allow_dirty=false
out=BENCH_results.json
for arg do
  shift
  case $arg in
    --allow-dirty) allow_dirty=true ;;
    --*) set -- "$@" "$arg" ;;
    *) out=$arg ;;
  esac
done
# the measured tree: full sha, with -dirty when the work tree differs
sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$sha" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
  if [ "$allow_dirty" != true ]; then
    echo "run.sh: the working tree has uncommitted changes (pass --allow-dirty to measure it)" >&2
    exit 2
  fi
  sha="$sha-dirty"
fi
dune build @bench
# a run that writes no results (--check-overhead, --footprint) leaves the
# results file older than this stamp and the history untouched
stamp=$(mktemp)
trap 'rm -f "$stamp"' EXIT
dune exec bench/main.exe -- --sha "$sha" "$@" --json "$out"
if [ "$out" -nt "$stamp" ]; then
  # JSON strings hold no raw newlines, so dropping them keeps it valid
  { tr -d '\n' < "$out"; echo; } >> BENCH_history.jsonl
fi
