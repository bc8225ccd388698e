// Package recal implements the traffic-facing half of actord's online
// recalibration loop: a bounded observation store sampled off /v1/predict
// traffic, a drift detector over it with fixed trip thresholds, and the
// wire shapes of the loop's status and event log.
//
// The package is deliberately ignorant of banks and engines — the serving
// layer (pkg/actor) owns the control loop: retraining, validation, canary
// admission, the event log and the atomic bank swap. This package answers
// "has traffic drifted away from the window the live model was calibrated
// against?" with bounded memory, no allocation on the observation path,
// and fully deterministic behaviour: the same observation sequence always
// produces the same drift verdicts. The store keeps windowed statistics,
// not the observations: a retrain reseeds a fresh simulator campaign when
// drift triggers it.
package recal

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
