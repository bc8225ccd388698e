#!/usr/bin/env bash
# recal_e2e.sh — CI end-to-end check of recalibration (make recal-e2e):
# train a fast MLR bank, start a real actord -recal, and drive the loop
# through actorrecalctl. Asserts that a triggered retrain promotes a new
# bank generation, that /v1/bank carries the generation + provenance chain
# with the "manual" trigger, that rolling back restores the original
# generation's /v1/bank body byte-identically, and that the promote route
# is gone.
#
# A retrain attempt may legitimately be *rejected*: on a stationary
# simulated platform a fresh campaign only beats the live bank at margin 0
# about half the time. Every trigger reseeds the attempt chain, so the
# loop below retries until one promotes.
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

port=7753
base="http://127.0.0.1:$port"

gen_of() { # first "generation" field of stdin JSON (top-level in status)
  grep -m1 -o '"generation": *[0-9]*' | grep -o '[0-9]*$' || echo 0
}

echo "== building binaries"
$GO build -o "$workdir/bin/" ./cmd/actor-train ./cmd/actord ./cmd/actorrecalctl

echo "== training a fast MLR bank"
"$workdir/bin/actor-train" -fast -mlr -bank "$workdir/bank.json" >/dev/null

echo "== starting actord -recal on :$port"
"$workdir/bin/actord" -bank "$workdir/bank.json" -addr "127.0.0.1:$port" \
  -recal 2>"$workdir/actord.log" &
pids+=($!)
ok=""
for _ in $(seq 1 100); do
  if curl -fsS "$base/readyz" >/dev/null 2>&1; then ok=1; break; fi
  sleep 0.1
done
if [ -z "$ok" ]; then
  echo "FAIL: actord never became ready"
  cat "$workdir/actord.log"
  exit 1
fi

curl -fsS "$base/v1/bank" >"$workdir/bank-gen0.json"
if grep -q '"generation"' "$workdir/bank-gen0.json"; then
  echo "FAIL: freshly trained bank already carries a generation"
  exit 1
fi

echo "== triggering retrains until a promotion lands"
gen=0
for attempt in $(seq 1 8); do
  outcome=$("$workdir/bin/actorrecalctl" -addr "$base" trigger | grep -o '"outcome": *"[a-z]*"' || true)
  gen=$("$workdir/bin/actorrecalctl" -addr "$base" status | gen_of)
  echo "   attempt $attempt: $outcome, live generation $gen"
  if [ "$gen" -ge 1 ]; then break; fi
done
if [ "$gen" -lt 1 ]; then
  echo "FAIL: no promotion after 8 triggers"
  "$workdir/bin/actorrecalctl" -addr "$base" status
  exit 1
fi

echo "== checking /v1/bank provenance"
curl -fsS "$base/v1/bank" >"$workdir/bank-promoted.json"
for field in '"generation"' '"provenance"' '"trigger": "manual"' '"candidate_err"'; do
  if ! grep -q "$field" "$workdir/bank-promoted.json"; then
    echo "FAIL: promoted /v1/bank lacks $field"
    cat "$workdir/bank-promoted.json"
    exit 1
  fi
done

echo "== rolling back to generation 0"
while [ "$gen" -gt 0 ]; do
  "$workdir/bin/actorrecalctl" -addr "$base" rollback >/dev/null
  gen=$("$workdir/bin/actorrecalctl" -addr "$base" status | gen_of)
done
curl -fsS "$base/v1/bank" >"$workdir/bank-restored.json"
if ! cmp -s "$workdir/bank-gen0.json" "$workdir/bank-restored.json"; then
  echo "FAIL: rolled-back /v1/bank is not byte-identical to the original"
  diff "$workdir/bank-gen0.json" "$workdir/bank-restored.json" | head
  exit 1
fi

echo "== checking the promote route is gone"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/recal/promote")
if [ "$code" = 200 ]; then
  echo "FAIL: POST /v1/recal/promote answered 200"
  exit 1
fi

echo "PASS: trigger -> promotion with provenance, rollback byte-identical, no promote route"
