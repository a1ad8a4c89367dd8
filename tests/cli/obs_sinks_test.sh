#!/bin/sh
# Usage: obs_sinks_test.sh PPF_SIM PPF_BATCH
# The observation keys (obs, sample_interval, trace_out, timeseries_out)
# through both drivers' own key tables. ppf_sim writes each sink to the
# path it is given; ppf_batch writes job i's to PREFIX.i.json
# (PREFIX.i.jsonl for a .jsonl prefix) and PREFIX.i.timeseries.json, a
# trailing .json or .jsonl dropped from the prefix. Job 0 of the batch
# is the ppf_sim run, so its sinks are byte-identical to ppf_sim's.
sim=$1
batch=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
run="bench=mcf instructions=2000 warmup=0"
status=0
fail() { echo "FAIL: $*"; status=1; }

# obs=1 alone turns the recorder on, and ppf_sim prints its summary.
# shellcheck disable=SC2086  # $run is several key=value words
"$sim" $run filter=none obs=1 >"$tmp/obs.txt" 2>&1 ||
  fail "ppf_sim obs=1: exit $?"
grep -q '^observability:' "$tmp/obs.txt" ||
  fail "ppf_sim obs=1: no observability summary: $(head -n 1 "$tmp/obs.txt")"

# shellcheck disable=SC2086
"$sim" $run filter=none sample_interval=1000 trace_out="$tmp/t.json" \
  timeseries_out="$tmp/s.json" >"$tmp/sim.txt" 2>&1 ||
  fail "ppf_sim sinks: exit $?: $(head -n 1 "$tmp/sim.txt")"
grep -q '^{"traceEvents":' "$tmp/t.json" 2>/dev/null ||
  fail "ppf_sim trace_out: no Chrome trace in t.json"
grep -q '"sample_interval": 1000,' "$tmp/s.json" 2>/dev/null ||
  fail "ppf_sim sample_interval=1000 did not reach s.json"

# shellcheck disable=SC2086
"$batch" $run filter=none,pc jobs=1 progress=0 out="$tmp/out.json" obs=1 \
  sample_interval=1000 trace_out="$tmp/p" timeseries_out="$tmp/p" \
  >"$tmp/batch.txt" 2>&1 ||
  fail "ppf_batch sinks: exit $?: $(head -n 1 "$tmp/batch.txt")"
for f in p.0.json p.0.timeseries.json p.1.json p.1.timeseries.json; do
  [ -s "$tmp/$f" ] || fail "ppf_batch wrote no $f"
done
cmp -s "$tmp/t.json" "$tmp/p.0.json" ||
  fail "ppf_batch p.0.json differs from ppf_sim's trace"
cmp -s "$tmp/s.json" "$tmp/p.0.timeseries.json" ||
  fail "ppf_batch p.0.timeseries.json differs from ppf_sim's time series"

# A .jsonl prefix keeps its format; a .json prefix loses its suffix, and
# a time-series sink alone samples every 50000 cycles.
# shellcheck disable=SC2086
"$batch" $run filter=none jobs=1 progress=0 out="$tmp/out2.json" \
  trace_out="$tmp/q.jsonl" timeseries_out="$tmp/r.json" \
  >"$tmp/batch2.txt" 2>&1 ||
  fail "ppf_batch .jsonl sinks: exit $?: $(head -n 1 "$tmp/batch2.txt")"
head -n 1 "$tmp/q.0.jsonl" 2>/dev/null | grep -q '^{"schema":"ppf.trace.v1"' ||
  fail "ppf_batch trace_out=q.jsonl: no ppf.trace.v1 lines in q.0.jsonl"
grep -q '"sample_interval": 50000,' "$tmp/r.0.timeseries.json" 2>/dev/null ||
  fail "ppf_batch timeseries_out=r.json: no 50000-cycle r.0.timeseries.json"
exit $status
