#!/usr/bin/env bash
# Checkpoint kill/resume smoke (DESIGN.md §14): run rsu-stereo uninterrupted
# for reference, re-run the identical job with -checkpoint and SIGKILL the
# process mid-solve — the harshest interruption, no cleanup handler runs —
# then resume from the surviving snapshot and require the resumed disparity
# map to be byte-identical to the reference. The binary is built with -race
# so the periodic capture path is also exercised under the race detector.
#
# Usage: scripts/checkpoint-smoke.sh   (from the repo root; used by
#        `make checkpoint-smoke` and CI)
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== building race-enabled rsu-stereo"
go build -race -o "$workdir/rsu-stereo" ./cmd/rsu-stereo

# One job, three runs. 150 sweeps at a 5-sweep checkpoint cadence leaves a
# long window between the first snapshot and completion to land the SIGKILL.
args=(-dataset teddy -scale 1 -iters 150 -sampler new -seed 7 -shards 2x1)
ckpt="$workdir/run.ckpt"

echo "== reference run (uninterrupted)"
"$workdir/rsu-stereo" "${args[@]}" -out "$workdir/ref" >/dev/null

echo "== checkpointed run, SIGKILL after the first snapshot"
"$workdir/rsu-stereo" "${args[@]}" -out "$workdir/res" \
  -checkpoint "$ckpt" -checkpoint-every 5 >/dev/null &
pid=$!
for _ in $(seq 1 600); do
  [ -f "$ckpt" ] && break
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "FAIL: run finished before any checkpoint appeared (raise -iters)" >&2
    exit 1
  fi
  sleep 0.05
done
if [ ! -f "$ckpt" ]; then
  echo "FAIL: no checkpoint within 30s" >&2
  kill -KILL "$pid" 2>/dev/null || true
  exit 1
fi
kill -KILL "$pid"
wait "$pid" 2>/dev/null || true
if [ ! -f "$ckpt" ]; then
  echo "FAIL: checkpoint file missing after SIGKILL" >&2
  exit 1
fi

echo "== resumed run"
"$workdir/rsu-stereo" "${args[@]}" -out "$workdir/res" \
  -checkpoint "$ckpt" -resume

echo "== comparing disparity maps"
if ! cmp "$workdir/ref/teddy_disparity.pgm" "$workdir/res/teddy_disparity.pgm"; then
  echo "FAIL: resumed disparity map differs from the uninterrupted reference" >&2
  exit 1
fi
if [ -f "$ckpt" ]; then
  echo "FAIL: snapshot not removed after the successful resume" >&2
  exit 1
fi
echo "OK: kill/resume output is byte-identical to the uninterrupted run"
