#!/usr/bin/env bash
# determinism.sh — the one place a change to model arithmetic proves that
# determinism survived it (CI; `make determinism`).
#
# Every leg of GOMAXPROCS={1,2,N} × {AVX2 kernels, -tags actor_noasm}
# must
#   - pass the bit-identity tests: the parallel pipeline against its
#     one-worker run, RunPhaseSweep against per-placement RunPhase, the lane
#     and GEMM kernels against their scalar references, the fleet scorer
#     against its O(M) reference and against the legacy-stream pin;
#   - reproduce the pinned fleet schedule digest (scripts/fleet_smoke.sh);
#   - print `actorsim -fast` byte-identically to the first leg.
set -euo pipefail

cd "$(dirname "$0")/.."

TESTS='TestParallelPipelineDeterminism|TestRunPhaseSweep|TestHeteroSweepMatchesRunPhaseProperty|TestConcurrentHeteroSweeps|TestShardedMemoConcurrentSweeps|BitIdenti|TestGOMAXPROCSDeterminism|TestLegacyStreamPinned'
PKGS=(./internal/exp ./internal/machine ./internal/ann ./internal/fleet)

ncpu="$(getconf _NPROCESSORS_ONLN)"
procs="$(printf '%s\n' 1 2 "$ncpu" | sort -nu)"

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

fail=0
for kernels in avx2 noasm; do
    for p in $procs; do
        leg="GOMAXPROCS=$p kernels=$kernels"
        flags=""
        [ "$kernels" = noasm ] && flags="-tags=actor_noasm"
        export GOMAXPROCS="$p" GOFLAGS="$flags"

        if ! go test -count=1 -run "$TESTS" "${PKGS[@]}" >"$out/test.log" 2>&1; then
            cat "$out/test.log"
            echo "FAIL $leg: bit-identity tests"; fail=1
        elif ! scripts/fleet_smoke.sh >"$out/fleet.log" 2>&1; then
            cat "$out/fleet.log"
            echo "FAIL $leg: fleet digest"; fail=1
        elif ! go run ./cmd/actorsim -fast >"$out/sim.txt" 2>"$out/sim.log"; then
            cat "$out/sim.log"
            echo "FAIL $leg: actorsim"; fail=1
        elif [ ! -e "$out/sim.first" ]; then
            mv "$out/sim.txt" "$out/sim.first"
            echo "ok   $leg (reference output: $(wc -l <"$out/sim.first") lines)"
        elif ! cmp "$out/sim.first" "$out/sim.txt"; then
            echo "FAIL $leg: actorsim -fast output differs from the first leg"; fail=1
        else
            echo "ok   $leg"
        fi
    done
done

exit "$fail"
