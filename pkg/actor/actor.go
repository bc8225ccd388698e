// Package actor is the public facade of the ACTOR reproduction: one stable
// import path over the internal evaluation, training, sweep and topology
// engines.
//
// The two central types are Engine and Bank. An Engine owns a simulated
// platform (the paper's quad-core Xeon by default, or any machine described
// by a compact topology descriptor) and exposes the pipeline stages as
// context-aware methods:
//
//	eng, err := actor.New(actor.WithTopology("16x4+32x2:little"), actor.WithFast())
//	bank, err := eng.Train(ctx)                  // offline: counter collection + model training
//	best, err := bank.BestConfig(ctx, rates)     // online: ranked configuration prediction
//	sweeps, err := eng.Sweep(ctx, actor.SweepRequest{Bench: "SP"})
//
// A Bank is a trained predictor bank plus the metadata needed to use it
// anywhere: the topology descriptor it was trained for, the configuration
// space, and the feature event sets. Banks round-trip through a versioned,
// self-describing serialization format (Bank.Save / LoadBank) whose
// predictions are bit-identical across the trip, so a bank trained in one
// process can be served by cmd/actord in another.
//
// Server is that serving layer, and Recalibrator keeps it honest under
// drift: Server.EnableRecalibration streams sampled predict-path
// observations into a drift detector, retrains shadow candidates
// warm-started from the live bank, validates them on a held-out split and
// promotes survivors through an atomic generation-tagged bank swap with
// instant rollback (see docs/SERVING.md, "Continuous recalibration").
//
// The cmd/ entry points (actor-train, actor-predict, actorsim, actord,
// actorctl) are thin wrappers over this package.
package actor

import (
	"fmt"
	"slices"
	"sort"

	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/pmu"
)

// Rates are observed per-cycle hardware event rates keyed by PAPI-style
// mnemonic (see the /v1/bank endpoint or Bank.Meta for the event names a
// bank consumes). The special key "IPC" carries the instructions-per-cycle
// rate sampled at the maximal-concurrency configuration.
type Rates map[string]float64

// toPMU resolves mnemonic keys into the internal event space.
func (r Rates) toPMU() (pmu.Rates, error) {
	out := make(pmu.Rates, len(r))
	for name, v := range r {
		e, known := eventIDByName[name]
		if _, dup := out[e]; !known || dup {
			return nil, r.resolveError()
		}
		out[e] = v
	}
	return out, nil
}

// resolveError names what toPMU tripped over. Names are walked in sorted
// order so the outcome — including which unknown mnemonic the error names —
// never depends on map iteration order.
func (r Rates) resolveError() error {
	names := make([]string, 0, len(r))
	for name := range r {
		names = append(names, name)
	}
	sort.Strings(names)
	seen := make(map[pmu.Event]bool, len(r))
	for _, name := range names {
		e, ok := eventIDByName[name]
		if !ok {
			return fmt.Errorf("actor: unknown event %q (IPC plus the PAPI mnemonics of the bank's event sets are accepted)", name)
		}
		if seen[e] {
			// Map keys are distinct, so only the "IPC" alias can collide.
			return fmt.Errorf("actor: %q and %q name the same event", e.String(), "IPC")
		}
		seen[e] = true
	}
	return nil
}

// Prediction is one configuration's predicted (or, for the sampling
// configuration, observed) aggregate IPC.
type Prediction struct {
	// Config is the configuration name within the bank's space.
	Config string `json:"config"`
	// IPC is the predicted aggregate instructions per cycle.
	IPC float64 `json:"ipc"`
	// Observed marks the sampling configuration's entry, whose IPC was
	// measured directly rather than predicted.
	Observed bool `json:"observed,omitempty"`
}

// rankPredictions orders predictions best first under the runtime's
// decision rule (core.CompareChoices: descending IPC, ties to the lower
// configuration name), so the ranking is deterministic and its top entry is
// the configuration core.Decide picks for the same values.
func rankPredictions(ps []Prediction) {
	slices.SortFunc(ps, func(a, b Prediction) int {
		return core.CompareChoices(a.Config, a.IPC, b.Config, b.IPC)
	})
}
