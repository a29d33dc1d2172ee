#!/bin/sh
# Build and run the benchmark suite, capturing machine-readable results
# in BENCH_results.json at the repository root.  The JSON carries a
# meta block (git sha, domain count, parallelism, units) so numbers are
# attributable to a tree state; results hold name -> ns/run.
#
# A tree with uncommitted changes is refused, since its numbers could
# not be traced back to a commit; pass --allow-dirty to measure it
# anyway (the sha is then stamped with -dirty).
set -e
cd "$(dirname "$0")/.."
allow_dirty=false
for arg do
  shift
  if [ "$arg" = --allow-dirty ]; then allow_dirty=true; else set -- "$@" "$arg"; fi
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
exec dune exec bench/main.exe -- --json --sha "$sha" "$@"
