#!/usr/bin/env bash
# CLI smoke: build rsu-stereo, rsu-flow and rsu-segment and run each with
# every shared run option at once (UQ, fault injection, 2x1 tiles, periodic
# checkpoints). A checkpointed run must print what a plain run prints; a run
# cut off by -timeout must leave a snapshot, and resuming from it must print
# the plain run's output too. Finally an invalid -tfloor, and a run log that
# cannot be written (where /dev/full exists), must fail instead of being
# ignored.
#
# Usage: scripts/cli-smoke.sh   (from the repo root; used by `make cli-smoke`
#        and CI)
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

for app in stereo flow segment; do
  bin="$workdir/rsu-$app"
  out="$workdir/$app"
  echo "== rsu-$app"
  go build -o "$bin" "./cmd/rsu-$app"
  args=(-iters 4 -uq -fault-dark 1e-3 -shards 2x1)
  ckpt=(-checkpoint "$out.ckpt" -checkpoint-every 2)

  "$bin" "${args[@]}" >"$out.ref"
  "$bin" "${args[@]}" "${ckpt[@]}" >"$out.ckpt.out"
  if ! cmp -s "$out.ref" "$out.ckpt.out"; then
    echo "FAIL: rsu-$app -checkpoint changed the output" >&2
    diff "$out.ref" "$out.ckpt.out" >&2 || true
    exit 1
  fi

  if "$bin" "${args[@]}" "${ckpt[@]}" -timeout 1ns >/dev/null 2>&1; then
    echo "FAIL: rsu-$app -timeout 1ns exited 0" >&2
    exit 1
  fi
  if [ ! -f "$out.ckpt" ]; then
    echo "FAIL: rsu-$app left no snapshot when its run was cut off" >&2
    exit 1
  fi
  "$bin" "${args[@]}" "${ckpt[@]}" -resume >"$out.res"
  if ! grep -q '^resuming ' "$out.res"; then
    echo "FAIL: rsu-$app -resume did not resume from the snapshot" >&2
    exit 1
  fi
  if ! grep -v '^resuming ' "$out.res" | cmp -s "$out.ref" -; then
    echo "FAIL: resumed rsu-$app output differs from the uninterrupted run" >&2
    exit 1
  fi
done

echo "== invalid -tfloor must fail"
for cmd in "rsu-stereo -tfloor -1" "rsu-segment -tfloor 1"; do
  read -r name flag value <<<"$cmd"
  if "$workdir/$name" -iters 4 "$flag" "$value" >/dev/null 2>&1; then
    echo "FAIL: $cmd exited 0" >&2
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
echo "OK: the solver CLIs checkpoint and resume bit-exactly and reject a bad -tfloor or an unwritable -runlog"
