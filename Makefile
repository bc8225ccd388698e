GO ?= go

.PHONY: build build-cmds test race test-noasm cross-arm64 fma-check bench bench-smoke bench-contract dist-e2e load-smoke fuzz-smoke fleet-smoke determinism recal-e2e fmt vet ci clean

build:
	$(GO) build ./...

## build-cmds: link every cmd/ entry point into bin/ (the binaries the
## SERVING.md quickstart runs; CI builds them to keep the mains linking).
build-cmds:
	$(GO) build -o bin/ ./cmd/...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

## test-noasm: the scalar-only build — -tags actor_noasm compiles no
## assembly at all, so every kernel runs its pure-Go reference (what
## non-amd64 ports run).
test-noasm:
	$(GO) test -tags actor_noasm ./...

## cross-arm64: build and vet for arm64, proving no port is stranded on
## missing assembly (build only: nothing runs).
cross-arm64:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./...

## fma-check: read the arm64 assembly of every package held to the same
## bits on every target and fail on any fused multiply-add whose source
## line lacks a `// fma-ok: <reason>` marker.
fma-check:
	scripts/fma_check.sh

## bench: print the full benchmark suite with allocation stats.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

## bench-smoke: run every benchmark exactly once — keeps the bench suite
## (the root one and the kernel benchmarks beside the unexported kernels of
## internal/ann and internal/machine) compiling and executing without
## paying for real measurements (CI). The performance record is
## benchmarks/ (bash benchmarks/run.sh, see benchmarks/README.md).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/ann ./internal/machine

## bench-contract: vet and smoke-test benchmarks/ — a Go module of its own,
## so `go build ./... && go test ./...` at the root never compiles it and a
## renamed identifier actorbench imports would otherwise pass CI (~4 s).
bench-contract:
	cd benchmarks && $(GO) vet ./... && $(GO) test ./...

## dist-e2e: full distributed-evaluation check — 3 actord workers +
## actorctl under fault injection (incl. a mid-run worker kill); fails
## unless the merged output is byte-identical to the single-process run.
dist-e2e:
	scripts/dist_e2e.sh

## load-smoke: fire a short seeded actorload trace at a real actord,
## asserting zero errors, sane throughput/p99 and byte-identical responses
## on replay (CI).
load-smoke:
	scripts/load_smoke.sh

## fuzz-smoke: run every Fuzz* target in the module for 10 s each (the
## toolchain fuzzes one target per invocation). The (package, target) pairs
## come from `go test -list`, so a target added to any package runs without
## editing this list. A crasher lands under the package's testdata/fuzz/ —
## commit it (CI).
fuzz-smoke:
	@set -e; list="$$($(GO) test -list '^Fuzz' ./...)"; \
	pairs="$$(echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1; next } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }')"; \
	[ -n "$$pairs" ] || { echo "fuzz-smoke: go test -list found no Fuzz targets"; exit 1; }; \
	echo "$$pairs" | while read -r pkg target; do \
		echo "== fuzz $$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s $$pkg < /dev/null; \
	done

## fleet-smoke: seeded 100-job/16-machine and 5000-job/1000-machine fleet
## scheduling runs on the incremental scorer — asserts each pinned
## deterministic schedule digest, zero QoS-bound violations and a clean
## `actorfleet -verify` (CI; see docs/FLEET.md).
fleet-smoke:
	scripts/fleet_smoke.sh

## determinism: the bit-identity tests, the pinned fleet digest, the pinned
## `actor-train -fast` bank and `-loo` bank bytes and the pinned `actorsim -fast`
## and `actorsim -fast hetero` outputs under every GOMAXPROCS={1,2,N} × {AVX2, -tags actor_noasm} leg — a PR
## that changes model arithmetic proves here that determinism survived (CI).
determinism:
	scripts/determinism.sh

## recal-e2e: end-to-end recalibration — actorrecalctl trigger against a
## real actord -recal must promote a new bank generation with provenance on
## /v1/bank, rolling back must restore the original generation's body
## byte-identically, and the promote route must be gone (CI; see
## docs/SERVING.md).
recal-e2e:
	scripts/recal_e2e.sh

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## ci: the CI workflow's test job, step for step.
ci: fmt vet build build-cmds race test-noasm cross-arm64 fma-check bench-smoke bench-contract

clean:
	rm -rf bin
