// Package recal implements the traffic-facing half of actord's online
// recalibration loop: a bounded observation store sampled off /v1/predict
// traffic, a drift detector over it, and the control-plane bookkeeping
// (state machine, generation events, canary admission) that the serving
// layer drives.
//
// The package is deliberately ignorant of banks and engines — the serving
// layer (pkg/actor) owns retraining, validation and the atomic bank swap;
// this package answers "has traffic drifted away from the window the live
// model was calibrated against?" and "what happened, when?" with bounded
// memory, no allocation on the observation path, and fully deterministic
// behaviour under a seed: the same observation sequence always produces
// the same drift verdicts and the same canary admissions. The store keeps
// windowed statistics, not the observations: a retrain reseeds a fresh
// simulator campaign when drift triggers it.
package recal

// splitmix64 is the hash behind canary admission: one multiply-xor-shift
// pipeline with full 64-bit avalanche, deterministic and allocation-free.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashPhase maps a phase label to its 64-bit identity (FNV-1a). The store
// tracks phases by hash so the observation path never retains or allocates
// label strings; the empty label hashes to the FNV offset basis and is a
// perfectly ordinary phase.
func HashPhase(label []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range label {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
