#!/usr/bin/env bash
# Interleaved A/B comparison of Bechamel entries: this working tree
# (head) against REV (base).
#
#   bench/ab.sh REV [PAIRS] [ENTRIES]
#
# ENTRIES is a comma-separated list of entry names from bench/main.ml
# (default: io/decode/n=1e4,io/bulk/n=1e4).  REV is exported with
# `git archive` into bench/_run/ab-<time>/ and given this tree's
# bench/main.ml and bench/dune, so both sides time identical benchmark
# code (the base must provide the library API that file uses).  Each
# pair runs the entries once per side (`main.exe --only`); odd pairs
# run base first, even pairs head first.  Defaults: 10 pairs.  The
# summary gives, per entry, each side's quartiles in ns/run, the head's
# wins (lower time) and a verdict: "gain" ("loss") needs 9 wins
# (losses) in 10 and a median gap wider than the base's quartile
# spread; anything else is "no clear change".
#
# A side that does not build stops the script, which names the side and
# prints the compiler's first error.  When the base fails because this
# tree's bench/main.ml calls a library function REV lacks or has with
# another signature, compare by hand: build REV's own bench in a
# `git archive` of it and alternate `main.exe --only` runs of the two
# binaries.
set -euo pipefail
rev=${1:?usage: bench/ab.sh REV [PAIRS] [ENTRIES]}
pairs=${2:-10}
entries=${3:-io/decode/n=1e4,io/bulk/n=1e4}

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=$root/bench/_run/ab-$(date +%Y%m%d-%H%M%S)
base=$out/base-tree
mkdir -p "$out/results" "$base"
git archive "$rev" | tar -x -C "$base"
cp bench/main.ml bench/dune "$base/bench/"
for side in head base; do
  dir=$root
  [ "$side" = base ] && dir=$base
  dune build --root "$dir" ./bench/main.exe 2> "$out/build-$side.err" || {
    echo "ab.sh: the $side side ($dir) does not build with this tree's bench/main.ml;" \
      "first error (all of it in $out/build-$side.err):" >&2
    # from the first "File" line up to the next one, else the log's head
    log=$out/build-$side.err
    if grep -q '^File ' "$log"; then awk '/^File / { if (seen++) exit } seen' "$log" >&2
    else head -n 20 "$log" >&2; fi
    exit 1
  }
done

run() { # side pair
  local dir=$root
  [ "$1" = base ] && dir=$base
  if ! "$dir/_build/default/bench/main.exe" --only "$entries" \
      --json "$out/results/$1-$2.json" > /dev/null 2> "$out/results/$1-$2.err"; then
    echo "ab.sh: $1 pair $2 failed, see $out/results/$1-$2.err" >&2
    exit 1
  fi
  echo "pair $2 $1 done"
}

for p in $(seq 1 "$pairs"); do
  if [ $((p % 2)) -eq 1 ]; then run base "$p"; run head "$p"
  else run head "$p"; run base "$p"; fi
done
rm -rf "$base"

# one "side pair entry ns" line per measurement, then the summary
for f in "$out"/results/*.json; do
  side_pair=$(basename "$f" .json)
  awk -v sp="${side_pair/-/ }" -v entries="$entries" '
    BEGIN { n = split(entries, e, ","); for (i = 1; i <= n; i++) want[e[i]] = 1 }
    match($0, /^ *"[^"]+": [0-9.]+/) {
      split($0, kv, "\""); v = $0; sub(/^[^:]*: */, "", v); sub(/,$/, "", v)
      if (kv[2] in want) print sp, kv[2], v
    }' "$f"
done | sort -k3,3 -k1,1 -k2,2n | awk '
  function q(a, n, p,   h, lo) {  # linear-interpolated quantile of sorted a[1..n]
    h = (n - 1) * p + 1; lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
  }
  function sortn(a, n,   i, j, t) {
    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
  }
  { v[$3, $1, $2] = $4; ent[$3] = 1; pr[$2] = 1 }
  END {
    printf "%-24s %-5s %14s %14s %14s %6s  %s\n", "entry", "side", "q1", "median", "q3", "wins", "verdict"
    for (e in ent) {
      nb = nh = wins = losses = np = 0
      for (p in pr) {
        if (((e, "base", p) in v) && ((e, "head", p) in v)) {
          np++; b[++nb] = v[e, "base", p]; h[++nh] = v[e, "head", p]
          if (h[nh] < b[nb]) wins++; else if (h[nh] > b[nb]) losses++
        }
      }
      sortn(b, nb); sortn(h, nh)
      bq1 = q(b, nb, .25); bm = q(b, nb, .5); bq3 = q(b, nb, .75)
      hq1 = q(h, nh, .25); hm = q(h, nh, .5); hq3 = q(h, nh, .75)
      verdict = "no clear change"
      if (wins * 10 >= 9 * np && bm - hm > bq3 - bq1) verdict = "gain"
      else if (losses * 10 >= 9 * np && hm - bm > bq3 - bq1) verdict = "loss"
      printf "%-24s %-5s %14.0f %14.0f %14.0f %6s\n", e, "base", bq1, bm, bq3, ""
      printf "%-24s %-5s %14.0f %14.0f %14.0f %3d/%-2d  %s (median %+.1f%%)\n", e, "head", hq1, hm, hq3, wins, np, verdict, (hm - bm) / bm * 100
    }
  }' | tee "$out/summary.txt"
