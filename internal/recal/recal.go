// Package recal holds the wire shapes of actord's recalibration admin
// routes — the GET /v1/recal/status Snapshot and its event log — and a
// bounded observation store with its phase-label hash.
//
// The package is deliberately ignorant of banks and engines: the serving
// layer (pkg/actor) owns recalibration, which runs only when asked
// (Recalibrator.Trigger) and reseeds a fresh simulator campaign each time.
// No predict traffic reaches it. The Store is fed by nothing in this
// module; the benchmark module times its Observe.
package recal

import "github.com/greenhpc/actor/internal/fnv"

// HashPhase maps a phase label to its 64-bit identity (FNV-1a). The store
// tracks phases by hash so the observation path never retains or allocates
// label strings; the empty label hashes to the FNV offset basis and is a
// perfectly ordinary phase.
func HashPhase(label []byte) uint64 {
	return fnv.Bytes(fnv.OffsetBasis, label)
}
