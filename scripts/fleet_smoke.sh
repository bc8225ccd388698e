#!/usr/bin/env bash
# fleet_smoke.sh — fleet scheduler determinism smoke (CI).
#
# Runs two seeded studies through actorfleet's digest mode with the
# incremental scorer and asserts each reproduces its pinned schedule digest
# with zero QoS violations: the 100-job / 16-machine smoke, and 5 000 jobs
# on the benchmark's 1000-machine fleet, where a dozen machines are scored
# per job and the probe index passes over whole buckets of machines (the
# 16-machine fleet never fills enough of them to). Any policy, float or
# ordering drift changes a digest and fails; a divergence from the O(M)
# reference fails TestScorerBitIdentity and TestScorerBitIdentityAtScale,
# which scripts/determinism.sh runs beside this script on every leg.
# -verify has fleet.Validate re-check each schedule independently of the
# scheduler: a run it refuses prints no digest line and fails here too.
# Last, a NaN QoS bound, mean size or arrival rate, a zero QoS bound and
# a stream past the job cap must be refused (exit 1).
set -euo pipefail

cd "$(dirname "$0")/.."

# Pinned digests for (fleet spec, stream, QoS 0.25). Re-pin only when the
# scheduling policy, the machine model or the job stream's draws change
# intentionally. The smoke's original pin, 570c7ac66d750e18, was taken on
# the per-job parallel.Rand stream GenJobs drew until it moved to
# counter-based draws; TestLegacyStreamPinned regenerates that stream and
# still asserts it.
SMOKE=(-fleet "12*2x2,4*1x4+2x2:little" -jobs 100 -seed 42 -rate 2)
SMOKE_WANT="digest=f7dbabbf7c22d7bb violations=0"
STUDY=(-fleet "400*4x2+2x2:little,600*2x2" -jobs 5000 -seed 42 -rate 60)
STUDY_WANT="digest=cce9ef4616d9f4a6 violations=0"

bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/actorfleet" ./cmd/actorfleet

fail=0
check() {
    local label="$1" want="$2" got="$3"
    case "$got" in
        "$want"*) echo "ok   $label: $got" ;;
        *)        echo "FAIL $label: got '$got', want '$want …'"; fail=1 ;;
    esac
}

check "incremental, 16 machines" "$SMOKE_WANT" "$("$bin/actorfleet" "${SMOKE[@]}" -digest -verify)"
check "incremental, 1000 machines" "$STUDY_WANT" "$("$bin/actorfleet" "${STUDY[@]}" -digest -verify)"

# A NaN passes every ordered comparison, so each parameter that feeds one
# must be refused outright: exit 1 and no digest line. So must a zero QoS
# bound, which the library would read as its 0.25 default, and a stream
# longer than GenJobs' cap, which would otherwise be allocated whole.
for bad in "-qos NaN" "-qos 0" "-meansize NaN" "-rate NaN" "-jobs 2000000000"; do
    # shellcheck disable=SC2086 # $bad is a flag and its value
    if out="$("$bin/actorfleet" "${SMOKE[@]}" $bad -digest 2>&1)"; then
        echo "FAIL $bad: accepted: $out"; fail=1
    elif [ $? -ne 1 ]; then
        echo "FAIL $bad: exit code is not 1: $out"; fail=1
    else
        echo "ok   $bad refused: $out"
    fi
done

exit "$fail"
