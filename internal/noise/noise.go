// Package noise provides seeded, deterministic measurement-noise sources.
//
// The paper's accuracy results (median IPC prediction error ≈ 9%) only make
// sense against realistic run-to-run variance in hardware counter readings
// and power-meter samples. This package supplies reproducible multiplicative
// noise streams used by the machine model and the PMU sampler. Every stream is derived from an explicit seed so experiments
// are bit-reproducible.
package noise

import (
	"math"
	"math/rand"
)

// Source is a deterministic noise stream.
type Source struct {
	seed int64
	rng  *rand.Rand
}

// New returns a noise source seeded with seed. Distinct subsystems should
// derive sub-sources via Fork so that adding draws in one subsystem does not
// shift another subsystem's stream.
func New(seed int64) *Source {
	return &Source{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child stream identified by id. Forking is
// stable: the same (seed, id) pair always yields the same stream regardless
// of how many values the parent has produced.
func (s *Source) Fork(id string) *Source {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for _, b := range []byte(id) {
		h ^= int64(b)
		h *= 1099511628211
	}
	return New(h ^ s.seed)
}

// Multiplicative returns a noise factor with mean ≈ 1 and relative standard
// deviation sigma, drawn from a log-normal distribution (always positive).
// sigma = 0 returns exactly 1.
func (s *Source) Multiplicative(sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	// Log-normal with E[X]=1: mu = -0.5*ln(1+sigma^2), s2 = ln(1+sigma^2).
	s2 := math.Log(1 + float64(sigma*sigma))
	mu := float64(-0.5 * s2)
	return math.Exp(mu + float64(math.Sqrt(s2)*s.rng.NormFloat64()))
}
