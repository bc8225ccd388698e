#!/usr/bin/env bash
# determinism.sh — the one place a change to model arithmetic proves that
# determinism survived it (CI; `make determinism`).
#
# Every alternative of TESTS must match a test (checked first, with
# go test -list), and every leg of GOMAXPROCS={1,2,N} × {AVX2 kernels,
# -tags actor_noasm} must
#   - pass the bit-identity tests: the parallel pipeline against its
#     one-worker run, RunPhaseSweep against per-placement RunPhase, the lane
#     and GEMM kernels against their scalar references, the fleet scorer
#     against its O(M) reference and against the legacy-stream pin, and
#     the oracle search (machine.Search) against the full sweep's minimum,
#     its lower bounds against every exact time and, bit for bit, against
#     the per-placement reference bound, its pinned prune and hash
#     censuses, the prefilter's exp bound against math.Exp, the z-free
#     factor against that bound, the batched response z against responseZ,
#     and the search built from balanced occupancies against the one built
#     from the listed placements, the pinned sha256 of the served
#     /v1/predict replies and their memo keys on the seed-42 -fast bank,
#     the pinned sha256 of the cold bodies (/v1/bank, health, readiness,
#     405, 400 and 413) on that bank, and the pinned sha256 of every
#     example's output;
#   - reproduce the pinned fleet schedule digests (scripts/fleet_smoke.sh);
#   - write the pinned `actor-train -fast` bank and the pinned
#     `actor-train -fast -loo` leave-one-out banks, and the same two at
#     paper fidelity (no -fast: the options train_loo trains at), byte
#     for byte;
#   - print the pinned `actorsim -fast` and `actorsim -fast hetero`
#     outputs, and the pinned `actorsim all` output at paper fidelity (no
#     -fast), byte for byte.
set -euo pipefail

cd "$(dirname "$0")/.."

# sha256 of `actor-train -fast -bank` (seed 42). A change that moves it
# changes model arithmetic: re-pin only with the reason in CHANGES.md.
BANK_SHA256=89ad510828ba7843bfd63698c14bc3827dc0cbd66f21341b4432cc8b13b19f47
# sha256 of the sorted `sha256sum loo-*.json` listing `actor-train -fast -loo`
# writes (one bank per left-out benchmark); re-pin under the same rule.
LOO_SHA256=f702240b573b1cb3f3bd5b9414154426eeef5ecf04703ea235f522f963143230
# The same two pins without -fast: `actor-train -bank` and `actor-train -loo`
# at the paper-fidelity defaults (exp.DefaultOptions). Same re-pin rule.
BANK_FULL_SHA256=9ba53dc4732f87809cb28034c69b35547dc7297d26cdac0539d5b5a45af94827
LOO_FULL_SHA256=606a121643c05c8f021fe0e917b00e72b9ba663e1c781763176c76b356004960
# sha256 of `actorsim -fast` (the whole evaluation, seed 42) and of
# `actorsim -fast hetero` (the oracle scaling study) on stdout. Pinned, not
# compared leg against leg, so a change that moves every leg alike fails
# too; re-pin under the same rule.
ACTORSIM_SHA256=0a63d7739428e10f2d4c7f89989b09a3d359e2a52a3d33ea7a944fda37aa0b1b
HETERO_SHA256=50d1fa7294326c4d51b038c4882aaea05992c0de865d3dd46fdbac800aa26fb6
# sha256 of `actorsim all` with no flags (paper fidelity, seed 42) on
# stdout: every printed figure at the options the paper's numbers come
# from. Same re-pin rule.
ACTORSIM_FULL_SHA256=84dbba33fe7fdf9ee9e33accc6346627dd56d4835475bc2544ce0290e1f63d81

TESTS='TestParallelPipelineDeterminism|TestRunPhaseSweep|TestHeteroSweepMatchesRunPhaseProperty|TestConcurrentHeteroSweeps|TestShardedMemoConcurrentSweeps|BitIdenti|TestGOMAXPROCSDeterminism|TestLegacyStreamPinned|TestSearchMatchesSweep|TestBalancedSearchMatchesNewSearch|TestSearchBoundNeverExceedsTime|TestSearchBoundProperty|TestSearchBoundsMatchReference|TestSearchPruneCensus|TestSearchHashCensus|TestExpLowerBound|TestLowFactorBound|TestResponseZ4MatchesResponseZ|TestServedPredictBytesPinned|TestServedColdBytesPinned|TestRunOutputPinned'
PKGS=(./internal/exp ./internal/machine ./internal/ann ./internal/fleet ./pkg/actor ./examples/...)

# go test -run drops an alternative that matches nothing without a word, so
# a renamed or deleted test would leave the matrix unnoticed: each
# alternative must list at least one test in PKGS before any leg runs.
IFS='|' read -ra alts <<<"$TESTS"
for alt in "${alts[@]}"; do
    if ! listed="$(go test -list "$alt" "${PKGS[@]}")"; then
        echo "$listed"
        echo "FAIL go test -list $alt"; exit 1
    fi
    if ! grep -qE '^(Test|Fuzz|Example)' <<<"$listed"; then
        echo "FAIL TESTS alternative $alt matches no test in ${PKGS[*]}"; exit 1
    fi
done

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
        elif ! go run ./cmd/actor-train -fast -bank "$out/bank.json" >"$out/train.log" 2>&1; then
            cat "$out/train.log"
            echo "FAIL $leg: actor-train"; fail=1
        elif ! bank="$(sha256sum "$out/bank.json" | cut -d' ' -f1)" || [ "$bank" != "$BANK_SHA256" ]; then
            echo "FAIL $leg: actor-train -fast bank sha256 $bank, pinned $BANK_SHA256"; fail=1
        elif ! { rm -rf "$out/loo" && mkdir "$out/loo" &&
                go run ./cmd/actor-train -fast -loo -bank "$out/loo/bank.json" >"$out/loo.log" 2>&1; }; then
            cat "$out/loo.log"
            echo "FAIL $leg: actor-train -loo"; fail=1
        elif ! loo="$(cd "$out/loo" && sha256sum loo-*.json | sha256sum | cut -d' ' -f1)" || [ "$loo" != "$LOO_SHA256" ]; then
            echo "FAIL $leg: actor-train -fast -loo banks sha256 $loo, pinned $LOO_SHA256"; fail=1
        elif ! go run ./cmd/actor-train -bank "$out/bank-full.json" >"$out/train-full.log" 2>&1; then
            cat "$out/train-full.log"
            echo "FAIL $leg: actor-train (paper fidelity)"; fail=1
        elif ! bank="$(sha256sum "$out/bank-full.json" | cut -d' ' -f1)" || [ "$bank" != "$BANK_FULL_SHA256" ]; then
            echo "FAIL $leg: actor-train bank sha256 $bank, pinned $BANK_FULL_SHA256"; fail=1
        elif ! { rm -rf "$out/loo" && mkdir "$out/loo" &&
                go run ./cmd/actor-train -loo -bank "$out/loo/bank.json" >"$out/loo-full.log" 2>&1; }; then
            cat "$out/loo-full.log"
            echo "FAIL $leg: actor-train -loo (paper fidelity)"; fail=1
        elif ! loo="$(cd "$out/loo" && sha256sum loo-*.json | sha256sum | cut -d' ' -f1)" || [ "$loo" != "$LOO_FULL_SHA256" ]; then
            echo "FAIL $leg: actor-train -loo banks sha256 $loo, pinned $LOO_FULL_SHA256"; fail=1
        elif ! go build -o "$out/actorsim" ./cmd/actorsim >"$out/sim.log" 2>&1 ||
                ! "$out/actorsim" -fast >"$out/sim.txt" 2>>"$out/sim.log" ||
                ! "$out/actorsim" -fast hetero >"$out/hetero.txt" 2>>"$out/sim.log" ||
                ! "$out/actorsim" all >"$out/sim-full.txt" 2>>"$out/sim.log"; then
            cat "$out/sim.log"
            echo "FAIL $leg: actorsim"; fail=1
        elif ! sim="$(sha256sum "$out/sim.txt" | cut -d' ' -f1)" || [ "$sim" != "$ACTORSIM_SHA256" ]; then
            echo "FAIL $leg: actorsim -fast output sha256 $sim, pinned $ACTORSIM_SHA256"; fail=1
        elif ! het="$(sha256sum "$out/hetero.txt" | cut -d' ' -f1)" || [ "$het" != "$HETERO_SHA256" ]; then
            echo "FAIL $leg: actorsim -fast hetero output sha256 $het, pinned $HETERO_SHA256"; fail=1
        elif ! full="$(sha256sum "$out/sim-full.txt" | cut -d' ' -f1)" || [ "$full" != "$ACTORSIM_FULL_SHA256" ]; then
            echo "FAIL $leg: actorsim all output sha256 $full, pinned $ACTORSIM_FULL_SHA256"; fail=1
        else
            echo "ok   $leg"
        fi
    done
done

exit "$fail"
