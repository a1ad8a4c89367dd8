#!/bin/sh
# Usage: rejects_bad_values.sh DRIVER FIXED CASE...
# FIXED is the arguments every case starts with, as one word ("" for
# none). Each CASE is "key=value [other=value ...]" with the bad value
# first, optionally followed by " ~ TEXT". The driver must exit 2 (a
# usage error, not an abort, a run or a served port), and the first line
# on its stderr must name the key and the value: "key=value: expected
# <domain>", or, for the one rule across fields, "key must be >= (...)";
# with TEXT, a first line that starts with TEXT.
drv=$1
fixed=$2
shift 2
[ $# -gt 0 ] || { echo "FAIL: no cases"; exit 1; }
status=0
for c in "$@"; do
  args=${c%% ~ *}
  kv=${args%% *}
  key=${kv%%=*}
  want="$kv: expected "
  if [ "$args" != "$c" ]; then want=${c#* ~ }; fi
  # shellcheck disable=SC2086  # several key=value words
  err=$("$drv" $fixed $args 2>&1 >/dev/null)
  rc=$?
  first=$(printf '%s\n' "$err" | head -n 1)
  case "$first" in
    "$want"* | "$key must be >= "*) ;;
    *) echo "FAIL [$args]: first line: $first"; status=1 ;;
  esac
  if [ "$rc" -ne 2 ]; then
    echo "FAIL [$args]: exit $rc, expected 2"
    status=1
  fi
done
exit $status
