#!/usr/bin/env bash
# fleet_smoke.sh — fleet scheduler determinism smoke (CI).
#
# Runs the seeded 100-job / 16-machine study through actorfleet's digest
# mode with the incremental scorer and asserts it reproduces the pinned
# schedule digest with zero QoS violations. Any policy, float or ordering
# drift changes the digest and fails; a divergence from the O(M) reference
# fails TestScorerBitIdentity, which scripts/determinism.sh runs beside
# this script on every leg.
# -verify has fleet.Validate re-check each schedule independently of the
# scheduler: a run it refuses prints no digest line and fails here too.
set -euo pipefail

cd "$(dirname "$0")/.."

FLEET="12*2x2,4*1x4+2x2:little"
ARGS=(-fleet "$FLEET" -jobs 100 -seed 42 -rate 2 -digest -verify)

# Pinned digest for (fleet spec, stream seed 42, QoS 0.25). Re-pin only
# when the scheduling policy, the machine model or the job stream's draws
# change intentionally. The scheduler's original pin, 570c7ac66d750e18, was
# taken on the per-job parallel.Rand stream GenJobs drew until it moved to
# counter-based draws; TestLegacyStreamPinned regenerates that stream and
# still asserts it.
WANT="digest=f7dbabbf7c22d7bb violations=0"

fail=0
check() {
    local label="$1" got="$2"
    case "$got" in
        "$WANT"*) echo "ok   $label: $got" ;;
        *)        echo "FAIL $label: got '$got', want '$WANT …'"; fail=1 ;;
    esac
}

check "incremental" "$(go run ./cmd/actorfleet "${ARGS[@]}")"

exit "$fail"
