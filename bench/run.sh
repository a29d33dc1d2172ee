#!/bin/sh
# Build and run the benchmark suite, capturing machine-readable results
# in BENCH_results.json at the repository root.  The JSON carries a
# meta block (git sha, domain count, parallelism, units) so numbers are
# attributable to a tree state; results hold name -> ns/run.
set -e
cd "$(dirname "$0")/.."
# the measured tree: full sha, with -dirty when the work tree differs
sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$sha" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
  sha="$sha-dirty"
fi
dune build @bench
exec dune exec bench/main.exe -- --json --sha "$sha" "$@"
