package workload

import (
	"fmt"
	"math/rand"
)

// The generator's ranges resemble the NPB population: 3–12 phases per
// benchmark, 4–400 outer timesteps.
const (
	genMinPhases, genMaxPhases         = 3, 12
	genMinIterations, genMaxIterations = 4, 400
)

// Generate synthesises a random, valid benchmark from seed. Phases are
// drawn from three archetypes (compute-dense, balanced, streaming/
// bandwidth-bound) with every characteristic jittered, so a generated
// population spans the behaviour space between BT-like and IS-like codes.
// The result always passes Validate.
func Generate(name string, seed int64) (*Benchmark, error) {
	rng := rand.New(rand.NewSource(seed))
	// Both roundings are forced: Float64's inlined scaling product would
	// otherwise fuse into span(lo, lo+2)'s rewritten f+f on arm64.
	span := func(lo, hi float64) float64 { return lo + float64((hi-lo)*float64(rng.Float64())) }
	intSpan := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }

	b := &Benchmark{
		Name:         name,
		Iterations:   intSpan(genMinIterations, genMaxIterations),
		Idiosyncrasy: span(-0.1, 0.1),
	}
	nPhases := intSpan(genMinPhases, genMaxPhases)
	for i := 0; i < nPhases; i++ {
		var p PhaseProfile
		switch rng.Intn(3) {
		case 0: // compute-dense
			p = PhaseProfile{
				BaseIPC:          span(1.3, 2.2),
				MemRefsPerInstr:  span(0.18, 0.34),
				L1MissRate:       span(0.02, 0.08),
				WorkingSetBytes:  span(0.4, 2.2) * 1024 * 1024,
				SharingFactor:    span(0.2, 0.4),
				ColdMissRate:     span(0.05, 0.18),
				MLP:              span(2, 3),
				PrefetchFriendly: span(0.4, 0.8),
			}
		case 1: // balanced
			p = PhaseProfile{
				BaseIPC:          span(1.0, 1.6),
				MemRefsPerInstr:  span(0.28, 0.42),
				L1MissRate:       span(0.06, 0.16),
				WorkingSetBytes:  span(1.5, 3.0) * 1024 * 1024,
				SharingFactor:    span(0.1, 0.35),
				ColdMissRate:     span(0.12, 0.3),
				MLP:              span(2, 4),
				PrefetchFriendly: span(0.3, 0.7),
			}
		default: // streaming / bandwidth-bound
			p = PhaseProfile{
				BaseIPC:             span(0.8, 1.2),
				MemRefsPerInstr:     span(0.42, 0.6),
				L1MissRate:          span(0.2, 0.45),
				WorkingSetBytes:     span(2.6, 3.8) * 1024 * 1024,
				SharingFactor:       span(0, 0.15),
				ColdMissRate:        span(0.2, 0.4),
				MLP:                 span(4, 12),
				PrefetchFriendly:    span(0.4, 0.85),
				StoreBandwidthBoost: span(0.4, 1.0),
			}
		}
		p.Name = fmt.Sprintf("phase-%d", i+1)
		p.Fingerprint = name + "/" + p.Name
		p.Instructions = span(5e7, 1.5e9)
		p.LoadFraction = span(0.55, 0.75)
		p.LocalityExp = span(0.7, 1.6)
		p.ParallelFraction = span(0.9, 0.998)
		p.SyncCycles = span(1e5, 2.5e6)
		p.CriticalFraction = span(0, 0.025)
		p.ChunkGranularity = 16 * (1 + rng.Intn(16))
		p.BranchRate = span(0.04, 0.12)
		p.BranchMissRate = span(0.005, 0.03)
		p.TLBMissRate = span(0.0002, 0.004)
		b.Phases = append(b.Phases, p)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid benchmark: %w", err)
	}
	return b, nil
}

// GeneratePopulation creates n random benchmarks named prefix-1..n with
// seeds derived from the base seed.
func GeneratePopulation(prefix string, n int, seed int64) ([]*Benchmark, error) {
	out := make([]*Benchmark, 0, n)
	for i := 0; i < n; i++ {
		b, err := Generate(fmt.Sprintf("%s-%d", prefix, i+1), seed+int64(i)*1_000_003)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
