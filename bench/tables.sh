#!/usr/bin/env bash
# Prints bench/tables.golden: rpbench's paper Tables 1-5 and 8 and the
# implementation ablations at 50 trials, seed 1. The runs are
# deterministic, so any difference is a changed detector or baseline.
# Table 7 is left out because it holds timings.
#
#   bash bench/tables.sh > bench/tables.golden   # regenerate
#   bash bench/tables.sh | diff bench/tables.golden -   # check
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/rpbench" ./cmd/rpbench
echo "# Generated by bash bench/tables.sh; regenerate with"
echo "# bash bench/tables.sh > bench/tables.golden"
echo
for t in 1 2 3 4 5 8; do
  "$tmp/rpbench" -table "$t" -trials 50 -seed 1
done
"$tmp/rpbench" -ablations -trials 50 -seed 1
