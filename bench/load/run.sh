#!/usr/bin/env bash
# The benchmark command: builds cypher_server and the load generator from
# this checkout, then runs the generator with the given arguments, e.g.
#   bash bench/load/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the generator's last stdout line is the
# result object.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -f bin/cypher_server.ml ]; then
  echo "run.sh: $(pwd) holds no cypher source tree to build" >&2
  exit 2
fi
dune build --root . ./bench/load/load.exe ./bin/cypher_server.exe 1>&2
exec ./_build/default/bench/load/load.exe --server _build/default/bin/cypher_server.exe "$@"
