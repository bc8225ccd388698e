package machine

import (
	"math"

	"github.com/greenhpc/actor/internal/fnv"
	"github.com/greenhpc/actor/internal/memo"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// memoKey is the full key of the phase memo (Machine.memo), a cache of
// the deterministic part of RunPhaseSweep keyed by everything that part
// depends on: the phase identity (Fingerprint), the placement (name and core
// set — the name feeds the response-factor hash, the cores feed group
// loads), the clock scale and the benchmark idiosyncrasy. Strategy replays
// and figure drivers execute the same (phase, placement) pair at every
// timestep, so hit rates in the evaluation pipeline are extremely high.
//
// The table itself is internal/memo's grow-only Table, a sync.Map from a
// key's memoHash to an entry holding the full key, which a hit compares
// before it serves the result. The first key stored under a hash keeps it:
// another key with the same hash is computed on every lookup and never
// stored, and is never served the first key's result. Hits take no lock
// and allocate nothing, and every Result served is a value copy of the
// stored one. This file owns only the key and its hash. Params are not in
// the key: they are fixed when a machine is built, and WithParams gives its
// copy a memo of its own.
//
// The cache deliberately excludes measurement noise: the sweep applies
// perturbation after the lookup, so noisy machines share the memo with
// their noiseless ground-truth counterpart.
type memoKey struct {
	fingerprint string
	placement   string
	coresHash   uint64
	freqScale   float64
	idio        float64
}

// memoSeed folds the placement-independent key fields — fingerprint and
// clock scale — and the class layout into a partial hash. RunPhaseSweep
// computes it once per phase and extends it per placement, so the
// per-lookup hashing cost in a sweep is just the placement tail.
func (m *Machine) memoSeed(p *workload.PhaseProfile) uint64 {
	h := fnv.String(fnv.Start, p.Fingerprint)
	h = fnv.Word(h, math.Float64bits(m.clockScale()))
	// Class layout: heterogeneous machines fold their per-core class
	// multipliers into every key, so a response computed under one class
	// table can never serve a machine with another.
	return fnv.Word(h, m.classSig)
}

// memoHash extends a memoSeed with the idiosyncrasy and the placement
// identity: its name plus the caller-computed coresHash, which the
// verification key reuses.
func memoHash(seed uint64, idio float64, pl *topology.Placement, coresHash uint64) uint64 {
	h := fnv.Word(seed, math.Float64bits(idio))
	h = fnv.String(h, pl.Name)
	return fnv.Word(h, coresHash)
}

// keyFor builds the full verification key for a lookup. coresHash is the
// placement's hashCores value, computed once per lookup and shared with
// memoHash.
func (m *Machine) keyFor(p *workload.PhaseProfile, idio float64, pl *topology.Placement, coresHash uint64) memoKey {
	return memoKey{
		fingerprint: p.Fingerprint,
		placement:   pl.Name,
		coresHash:   coresHash,
		freqScale:   m.clockScale(),
		idio:        idio,
	}
}

// hashCores folds a placement's core list into a hash, so distinct core
// sets that happen to share a placement name cannot collide.
func hashCores(cores []topology.CoreID) uint64 {
	h := fnv.Start
	for _, c := range cores {
		h = fnv.Word(h, uint64(c))
	}
	return h
}

// WithMemo returns a copy of the machine that serves the deterministic part
// of RunPhase from a shared phase-response cache. Derived machines
// (WithNoise, WithFrequency) share the memo — frequency-scaled results are
// distinguished by the cache key. A WithParams copy gets a memo of its own.
//
// Results served from the cache are value copies — the hot hit path performs
// zero allocations and callers may mutate what they receive (measurement
// noise is applied to the copy).
//
// Phases without a Fingerprint bypass the cache entirely.
func (m *Machine) WithMemo() *Machine {
	cp := *m
	if cp.memo == nil {
		cp.memo = &memo.Table[memoKey, Result]{}
	}
	return &cp
}

// MemoStats reports cache hits and misses (both zero when no memo is
// enabled) — used by benchmarks and PERFORMANCE.md to document hit rates.
func (m *Machine) MemoStats() (hits, misses uint64) {
	if m.memo == nil {
		return 0, 0
	}
	hits, misses, _ = m.memo.Stats()
	return hits, misses
}
