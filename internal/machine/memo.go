package machine

import (
	"math"

	"github.com/greenhpc/actor/internal/memo"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// phaseMemo is a concurrency-safe cache of the deterministic part of
// RunPhase, keyed by everything that part depends on: the phase identity
// (Fingerprint), the placement (name and core set — the name feeds the
// response-factor hash, the cores feed group loads), the clock scale and
// the benchmark idiosyncrasy. Strategy replays and figure drivers execute
// the same (phase, placement) pair at every timestep, so hit rates in the
// evaluation pipeline are extremely high.
//
// The table itself is internal/memo's grow-only Table: hits are lock-free
// and allocation-free, and every Result served is a value copy of the stored
// one. This file owns only the key and its hash. Params are not in the key:
// they are fixed when a machine is built, and WithParams gives its copy a
// memo of its own.
//
// The cache deliberately excludes measurement noise: RunPhase applies
// perturbation after the lookup, so noisy machines share the memo with
// their noiseless ground-truth counterpart.
type phaseMemo struct {
	memo.Table[memoKey, Result]
}

type memoKey struct {
	fingerprint string
	placement   string
	coresHash   uint64
	freqScale   float64
	idio        float64
}

// memoSeed folds the placement-independent key fields — fingerprint and
// clock scale — and the class layout into a partial hash: FNV-1a's loop
// and prime from 1469598103934665603, which is not FNV's 64-bit offset
// basis (14695981039346656037). Any start value keys the memo as well;
// this one is kept so every key stays in the shard it has always used.
// RunPhaseSweep computes it once per phase and extends it per placement,
// so the per-lookup hashing cost in a sweep is just the placement tail.
func (m *Machine) memoSeed(p *workload.PhaseProfile) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(p.Fingerprint); i++ {
		h ^= uint64(p.Fingerprint[i])
		h *= 1099511628211
	}
	h ^= math.Float64bits(m.clockScale())
	h *= 1099511628211
	// Class layout: heterogeneous machines fold their per-core class
	// multipliers into every key, so a response computed under one class
	// table can never serve a machine with another.
	h ^= m.classSig
	h *= 1099511628211
	return h
}

// memoHash extends a memoSeed with the placement identity (name plus the
// caller-computed coresHash, which the verification key reuses) and the
// idiosyncrasy, then avalanches so shard and probe bits are independent.
func memoHash(seed uint64, idio float64, pl *topology.Placement, coresHash uint64) uint64 {
	h := seed
	h ^= math.Float64bits(idio)
	h *= 1099511628211
	for i := 0; i < len(pl.Name); i++ {
		h ^= uint64(pl.Name[i])
		h *= 1099511628211
	}
	h ^= coresHash
	h *= 1099511628211
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
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

// lookup writes the memoised deterministic result for the task into *res,
// computing and inserting it on first use.
func (c *phaseMemo) lookup(m *Machine, p *workload.PhaseProfile, idio float64, pl topology.Placement, res *Result) {
	coresHash := hashCores(pl.Cores)
	hash := memoHash(m.memoSeed(p), idio, &pl, coresHash)
	key := m.keyFor(p, idio, &pl, coresHash)
	if hit := c.Get(hash, &key); hit != nil {
		*res = *hit
		return
	}
	m.computePhase(p, idio, pl, res)
	c.Put(hash, key, *res)
}

// hashCores folds a placement's core list into a hash (memoSeed's FNV-1a
// loop and start value), so distinct core sets that happen to share a
// placement name cannot collide.
func hashCores(cores []topology.CoreID) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range cores {
		h ^= uint64(c)
		h *= 1099511628211
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
		cp.memo = &phaseMemo{}
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
