#!/bin/sh
# ppf_batch progress rendering contract, pinned bytes.
#
# Under CTest stderr is never a TTY, so progress=1 (and auto) must
# resolve to plain mode: one full completion line per job, no carriage
# returns, no ANSI escape sequences, no wall-clock content in the
# progress stream. With jobs=1 the completion order is the dispatch
# order (trace by trace: each seed's jobs together, in index order), so
# the whole progress transcript is deterministic and pinned below.
# progress=0 must keep the stream silent.
set -eu

batch="$1"
tmp="${TMPDIR:-/tmp}/ppf_batch_progress.$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

run_args="bench=mcf filter=none,pc seed_list=1,2 instructions=20000 \
warmup=0 jobs=1 out=/dev/null"

# progress=1 without a TTY resolves to plain.
"$batch" $run_args progress=1 2>"$tmp/auto.err"
# --progress=plain forces the same style explicitly.
"$batch" $run_args --progress=plain 2>"$tmp/plain.err"
# progress=0 keeps the stream free of progress lines entirely.
"$batch" $run_args progress=0 2>"$tmp/quiet.err"

for err in auto.err plain.err; do
  # No control sequences: \r would mean the fancy in-place line leaked,
  # ESC would mean ANSI styling leaked.
  if od -An -c "$tmp/$err" | grep -E '\\r|033' >/dev/null; then
    echo "FAIL: control sequences in $err" >&2
    od -c "$tmp/$err" >&2
    exit 1
  fi
  # The progress lines themselves, byte-pinned.
  grep '^\[' "$tmp/$err" >"$tmp/$err.progress" || true
  cat >"$tmp/expected" <<'EOF'
[1/4] mcf/none/s1
[2/4] mcf/pc/s1
[3/4] mcf/none/s2
[4/4] mcf/pc/s2
EOF
  if ! cmp -s "$tmp/$err.progress" "$tmp/expected"; then
    echo "FAIL: $err progress transcript diverged" >&2
    diff "$tmp/expected" "$tmp/$err.progress" >&2 || true
    exit 1
  fi
done

if grep '^\[' "$tmp/quiet.err" >/dev/null; then
  echo "FAIL: progress=0 still emitted progress lines" >&2
  exit 1
fi

echo "PASS"
