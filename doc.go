// Package actor is the root of the ACTOR reproduction: an Adaptive
// Concurrency Throttling Optimization Runtime with ANN-based IPC
// prediction, after Curtis-Maury et al., "Identifying Energy-Efficient
// Concurrency Levels Using Machine Learning" (GreenCom 2007).
//
// The public API is the pkg/actor facade: actor.Engine wraps the simulated
// platform with context-aware Train / Predict / BestConfig / Sweep methods
// under functional options (actor.WithTopology("16x4+32x2:little"),
// actor.WithFast(), actor.WithSeed(...)), and actor.Bank carries trained
// predictors through a versioned, self-describing serialization format
// whose predictions are bit-identical across a save/load round trip. The
// implementation lives under internal/. Most entry points under cmd/ are
// thin wrappers over the facade; actorctl, actorfleet and actorload drive
// subsystems the facade does not re-export and import internal/dist,
// internal/fleet, internal/loadgen and internal/report directly. Run
//
//	go run ./cmd/actorsim all
//
// to regenerate every figure of the paper's evaluation on the simulated
// quad-core Xeon, or pass a topology descriptor to run the evaluation on
// any machine, including heterogeneous big/little parts:
//
//	go run ./cmd/actorsim -topology "16x4+32x2:little" -fast scalability
//	go run ./cmd/actorsim -fast hetero
//
// To serve a trained bank behind an HTTP JSON API (ranked configuration
// predictions and per-placement phase sweeps), train with cmd/actor-train
// and serve with cmd/actord — see docs/SERVING.md for the quickstart and
// for the strict v1 request grammar its POST routes accept:
//
//	go run ./cmd/actor-train -fast -bank models/bank.json
//	go run ./cmd/actord -bank models/bank.json
//
// A served bank need not stay frozen: actord -recal runs the online
// recalibration loop (internal/recal + pkg/actor's Recalibrator). Sampled
// predict-path observations feed a seeded drift detector; a trip retrains
// a shadow candidate warm-started from the live bank under a pure
// (seed, generation, attempt) noise chain, validates it on a held-out
// split, and promotes it — optionally through a canary — via an atomic
// generation-tagged bank swap with instant rollback. /v1/bank carries the
// provenance chain, cmd/actorrecalctl drives the /v1/recal/* admin
// routes, and the same traffic trace reproduces the same promotion
// decisions and bank bytes at any GOMAXPROCS. See the "Continuous
// recalibration" section of docs/SERVING.md.
//
// Whole-config-space evaluation shards across a fleet of actord workers:
// cmd/actorctl partitions the (benchmark × phase) workload, fans shards
// out over POST /v1/eval with retries, backoff and straggler hedging
// (internal/dist), and merges results in canonical shard order, so the
// distributed run is byte-identical to the single-process run under any
// failure schedule — worker deaths included — degrading all the way to
// in-process evaluation when every worker is gone. See the "Distributed
// evaluation" section of docs/SERVING.md and internal/dist/faultinject
// for the fault-injection harness that tests exactly that.
//
// The cluster-scale study runs through cmd/actorfleet: a seeded stream of
// jobs carrying NPB phase signatures arrives at a fleet of heterogeneous
// machines ("count*descriptor" terms, e.g. "400*4x2+2x2:little,600*2x2"),
// and the interference-aware scheduler places each under a QoS degradation
// bound, reporting fleet ED² and utilization against naive bin-packing.
// The shipped incremental scorer (bucketed probe order, resident states
// interned when a machine changes, one verdict per job class and state) is
// digest-identical to the O(M) reference its tests keep, actorfleet
// -scorer picks it or the bin-packing baseline, schedules are
// byte-identical across runs and GOMAXPROCS settings, and actorfleet
// -verify re-checks one independently of the scheduler. See
// docs/FLEET.md:
//
//	go run ./cmd/actorfleet -fleet "400*4x2+2x2:little,600*2x2" -jobs 10000 -rate 60
//
// Topology descriptors follow the grammar of topology.ParseDesc —
// "count x groupSize [:class]" terms joined by "+", where a class is
// "big", "little", or an inline "name(freqMult,cpiMult[,smtWidth])"
// definition, with an optional "@GHz" clock — and are the one way to
// describe a machine other than the paper's quad-core Xeon. Figure drivers
// and served sweeps execute on the batched phase-sweep
// engine (machine.RunPhaseSweep), which solves one lane per distinct
// (class, load) key of a placement and weights every reduction by how many
// threads share the key — bit-identical to per-placement RunPhase, and
// within rounding of the per-thread model. The scaling studies' oracle
// searches run machine.Search on the same engine, prepared once per machine:
// it bounds every placement's time from below with one lane step at the
// uncontended bus over the machine's few distinct (class, load) keys, takes
// the response factor's exp only where a bound can still win, solves the
// fixed point only where the bound can still beat the best time found, and
// returns the minimum a full sweep would, bit for bit.
//
// On amd64 machines with AVX2 the hot numeric kernels — the ANN trainer's
// dense forward, backprop delta and SGD update, and the sweep engine's
// fixed-point lane step — run as hand-written vector assembly selected at
// startup by internal/simd's CPUID probe. Every vector kernel vectorizes
// across independent outputs only (batch samples, units, weight indices,
// solve lanes) and performs, per output, the scalar reference's exact
// IEEE-754 operation sequence, so results are bit-identical regardless of
// which implementation ran; fuzzed tests enforce that equality to the
// last bit. The pure-Go reference is always built: build with -tags
// actor_noasm to force it, and see PERFORMANCE.md for the dispatch details
// and measured effect.
package actor
