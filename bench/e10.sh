#!/usr/bin/env bash
# E10, where the time goes: one cold behavioral compile of each of
# counter, traffic, alu4 and pdp8, each printing its per-stage table
# (`scc compile D --stats`) on stdout, and BENCH_e10.json collecting
# their metrics snapshots (`--metrics`) as the perf trajectory a later
# commit diffs against (its "qor" sections must not change).
#
#   bash bench/e10.sh [SCC] [OUT]
#
# SCC defaults to the built _build/default/bin/scc.exe, OUT to
# BENCH_e10.json in the current directory.
set -euo pipefail

scc=${1:-_build/default/bin/scc.exe}
out=${2:-BENCH_e10.json}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

printf '{"schema":"scc-bench","experiment":"e10","snapshots":[' > "$out"
sep=
for d in counter traffic alu4 pdp8; do
  printf '\n%s\n' "$d"
  "$scc" compile "$d" --stats --metrics "$tmp/$d.json" -o /dev/null
  printf '%s%s' "$sep" "$(cat "$tmp/$d.json")" >> "$out"
  sep=,
done
printf ']}\n' >> "$out"
echo "machine-readable snapshots written to $out"
