#!/bin/sh
# Usage: rejects_bad_values.sh PPF_SIM CASE...
# Each CASE is "key=value [other=value ...]" with the bad override first.
# ppf_sim must exit 2 (a usage error, not an abort) and its first line
# must name the key and the value: "key=value: expected <domain>", or,
# for the one rule across fields, "rob must be >= width (...)".
sim=$1
shift
status=0
for args in "$@"; do
  kv=${args%% *}
  key=${kv%%=*}
  # shellcheck disable=SC2086  # several key=value words
  out=$("$sim" bench=mcf instructions=2000 warmup=0 $args 2>&1)
  rc=$?
  first=$(printf '%s\n' "$out" | head -n 1)
  case "$first" in
    "$kv: expected "* | "$key must be >= "*) ;;
    *) echo "FAIL [$args]: first line: $first"; status=1 ;;
  esac
  if [ "$rc" -ne 2 ]; then
    echo "FAIL [$args]: exit $rc, expected 2"
    status=1
  fi
done
exit $status
