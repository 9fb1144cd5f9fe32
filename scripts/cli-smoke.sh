#!/usr/bin/env bash
# CLI smoke: build rsu-stereo, rsu-flow and rsu-segment and run each with
# every shared run option at once (UQ, fault injection, periodic
# checkpoints), once on 2x1 tiles and once with -workers 1 (the serial
# one-tile plan, whose snapshots stay version 1). A checkpointed run must
# print what a plain run prints; a run cut off by -timeout must leave a
# snapshot of the expected format version, and resuming from it must print
# the plain run's output too. Finally invalid input (a bad -tfloor, scene
# flag or iteration count) must exit 1 with an error, never a panic, and a
# run log that cannot be written (where /dev/full exists) must fail instead
# of being ignored.
#
# Usage: scripts/cli-smoke.sh   (from the repo root; used by `make cli-smoke`
#        and CI)
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

for app in stereo flow segment; do
  bin="$workdir/rsu-$app"
  go build -o "$bin" "./cmd/rsu-$app"
  # Each leg: its engine flags, then the snapshot format version it writes.
  for leg in "-shards 2x1 2" "-workers 1 1"; do
    read -r engflag engval version <<<"$leg"
    out="$workdir/$app-$engval"
    echo "== rsu-$app $engflag $engval"
    args=(-iters 4 -uq -fault-dark 1e-3 "$engflag" "$engval")
    ckpt=(-checkpoint "$out.ckpt" -checkpoint-every 2)

    "$bin" "${args[@]}" >"$out.ref"
    "$bin" "${args[@]}" "${ckpt[@]}" >"$out.ckpt.out"
    if ! cmp -s "$out.ref" "$out.ckpt.out"; then
      echo "FAIL: rsu-$app $engflag $engval -checkpoint changed the output" >&2
      diff "$out.ref" "$out.ckpt.out" >&2 || true
      exit 1
    fi

    if "$bin" "${args[@]}" "${ckpt[@]}" -timeout 1ns >/dev/null 2>&1; then
      echo "FAIL: rsu-$app $engflag $engval -timeout 1ns exited 0" >&2
      exit 1
    fi
    if [ ! -f "$out.ckpt" ]; then
      echo "FAIL: rsu-$app $engflag $engval left no snapshot when its run was cut off" >&2
      exit 1
    fi
    # The format version is the little-endian u32 at byte 8.
    got=$(od -An -tu4 -j8 -N4 "$out.ckpt" | tr -d ' ')
    if [ "$got" != "$version" ]; then
      echo "FAIL: rsu-$app $engflag $engval wrote a version-$got snapshot, want version $version" >&2
      exit 1
    fi
    "$bin" "${args[@]}" "${ckpt[@]}" -resume >"$out.res"
    if ! grep -q '^resuming ' "$out.res"; then
      echo "FAIL: rsu-$app $engflag $engval -resume did not resume from the snapshot" >&2
      exit 1
    fi
    if ! grep -v '^resuming ' "$out.res" | cmp -s "$out.ref" -; then
      echo "FAIL: resumed rsu-$app $engflag $engval output differs from the uninterrupted run" >&2
      exit 1
    fi
  done
done

# must_fail NAME ARGS...: rsu-NAME -iters 4 ARGS... must exit 1 — an error,
# not a panic (exit 2) or success — with its message on stderr.
must_fail() {
  local name=$1 status=0
  shift
  "$workdir/$name" -iters 4 "$@" >/dev/null 2>"$workdir/stderr" || status=$?
  if [ "$status" -ne 1 ]; then
    echo "FAIL: $name $* exited $status, want 1" >&2
    cat "$workdir/stderr" >&2
    exit 1
  fi
}

echo "== invalid -tfloor must fail"
must_fail rsu-stereo -tfloor -1
must_fail rsu-segment -tfloor 1
echo "== invalid scene flags and iteration counts must fail, naming the flag"
for cmd in "rsu-segment -image 99" "rsu-segment -image -1" "rsu-segment -k 1" \
  "rsu-segment -k 100" "rsu-segment -scale 0" "rsu-segment -scale -1" \
  "rsu-segment -iters -5" "rsu-stereo -scale 0" "rsu-stereo -scale -1" \
  "rsu-stereo -iters -5" "rsu-flow -scale 0" "rsu-flow -scale -1" \
  "rsu-flow -iters -5"; do
  read -r name flag value <<<"$cmd"
  must_fail "$name" "$flag" "$value"
  if ! grep -qF -- "$flag $value" "$workdir/stderr"; then
    echo "FAIL: $cmd did not name $flag in its error:" >&2
    cat "$workdir/stderr" >&2
    exit 1
  fi
done
if [ -e /dev/full ]; then
  echo "== unwritable -runlog must fail"
  for app in stereo flow segment; do
    if "$workdir/rsu-$app" -iters 4 -runlog /dev/full >/dev/null 2>&1; then
      echo "FAIL: rsu-$app -runlog /dev/full exited 0" >&2
      exit 1
    fi
  done
fi
echo "OK: the solver CLIs checkpoint and resume bit-exactly on tiles and on the serial plan, and reject invalid input or an unwritable -runlog"
