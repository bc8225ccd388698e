#!/usr/bin/env bash
# load_smoke.sh — CI smoke test for the serving path under load
# (make load-smoke): build the binaries, train a fast bank, start a real
# actord process, and fire a short seeded actorload trace at it. The run
# asserts zero failed requests, non-trivial throughput, a (very generous,
# CI-runner-proof) p99 bound, and — via actorload -check — that replaying
# every distinct request returns byte-identical responses: the first
# delivery of each body is a memo miss and the replay a hit, so this pins
# that caching never changes a served byte.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building binaries"
$GO build -o "$workdir/bin/" ./cmd/actor-train ./cmd/actord ./cmd/actorload

echo "== training a fast MLR bank"
"$workdir/bin/actor-train" -fast -mlr -bank "$workdir/bank.json" >/dev/null

port=7751
echo "== starting actord on :$port"
"$workdir/bin/actord" -bank "$workdir/bank.json" -addr "127.0.0.1:$port" 2>"$workdir/actord.log" &
pids+=($!)
ok=""
for _ in $(seq 1 100); do
  if curl -fsS "http://127.0.0.1:$port/readyz" >/dev/null 2>&1; then ok=1; break; fi
  sleep 0.1
done
if [ -z "$ok" ]; then
  echo "FAIL: actord :$port never became ready"
  cat "$workdir/actord.log"
  exit 1
fi
echo "== load smoke"
# 2s seeded trace; the gates are deliberately loose — this asserts the
# path works under concurrency, not a performance number (benchmarks/,
# run with `bash benchmarks/run.sh`, owns the numbers).
"$workdir/bin/actorload" -addr "http://127.0.0.1:$port" \
  -duration 2s -rate 1000 -seed 42 -conns 8 -check \
  -min-rps 50 -p99-max 2s -json "$workdir/load.json"

echo "PASS: load smoke green (byte-identical replays)"
