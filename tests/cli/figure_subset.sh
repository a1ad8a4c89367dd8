#!/bin/sh
# Usage: figure_subset.sh BENCH_PAPER TRANSCRIPT BANNERS key=value...
# Runs BENCH_PAPER with the key=value args (a fig= selection among them)
# and checks that its stdout equals the sections of TRANSCRIPT, a fig=all
# transcript at the same scale, whose banner ids BANNERS names as an
# alternation ("Energy|Models"). A section runs from the blank line
# before its "=== ID — ..." banner to the blank line before the next
# banner. So a row prints the same numbers whichever rows share its sweep.
set -eu
bench=$1
transcript=$2
banners=$3
shift 3
"$bench" "$@" > figure_subset.txt
awk -v ids="$banners" '
  NR > 1 {
    if ($0 ~ /^=== /) keep = ($0 ~ ("^=== (" ids ") "))
    if (keep) print held
  }
  { held = $0 }
  END { if (keep) print held }
' "$transcript" > figure_subset_expected.txt
if ! cmp -s figure_subset_expected.txt figure_subset.txt; then
  diff -u figure_subset_expected.txt figure_subset.txt | head -n 40
  exit 1
fi
