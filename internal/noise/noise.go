// Package noise provides seeded, deterministic measurement-noise sources.
//
// The paper's accuracy results (median IPC prediction error ≈ 9%) only make
// sense against realistic run-to-run variance in hardware counter readings
// and power-meter samples. This package supplies the reproducible
// multiplicative noise streams the machine model perturbs its measurements
// with. Every stream is derived from an explicit seed so experiments are
// bit-reproducible.
package noise

import (
	"math"
	"math/rand"

	"github.com/greenhpc/actor/internal/fnv"
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
// of how many values the parent has produced. The id is hashed with the
// module's FNV-1a fold (internal/fnv).
func (s *Source) Fork(id string) *Source {
	return New(int64(fnv.String(fnv.Start, id)) ^ s.seed)
}

// Multiplicative is a log-normal noise level: factors with mean ≈ 1 and
// relative standard deviation sigma, always positive. Its constants are
// worked out once, by NewMultiplicative, rather than on every draw.
type Multiplicative struct {
	mu, sd float64
}

// NewMultiplicative returns the noise level of relative standard deviation
// sigma ≥ 0. Sigma = 0 draws exactly 1.
func NewMultiplicative(sigma float64) Multiplicative {
	// Log-normal with E[X]=1: mu = -0.5*ln(1+sigma^2), s2 = ln(1+sigma^2).
	s2 := math.Log(1 + float64(sigma*sigma))
	return Multiplicative{mu: float64(-0.5 * s2), sd: math.Sqrt(s2)}
}

// Draw returns the next noise factor at level m from src.
func (m Multiplicative) Draw(src *Source) float64 {
	return math.Exp(m.mu + float64(m.sd*src.rng.NormFloat64()))
}
