package ann

import (
	"errors"
	"fmt"
)

// FineTuneEnsembles fine-tunes bases[i] on sets[i] for every i — ensemble i
// is bit-identical to fine-tuning bases[i] on sets[i] alone. Each member
// fine-tunes a copy of the corresponding base member's weights under the
// same deterministic fold protocol as TrainEnsemble — member i early-stops
// on fold i and estimates on fold (i+1) mod k. The base's Scaler is reused,
// not refit: the member weights are expressed in the base's normalised
// feature space, so refitting the scaler on the new samples would silently
// invalidate the warm start. With cfg.WarmStartEpochs > 0 each member
// trains at most that many epochs at halved patience; otherwise
// cfg.MaxEpochs applies. Deterministic under cfg.Seed at any GOMAXPROCS.
//
// Targets whose bases share a member count and whose base scalers turn
// their samples into bitwise-identical feature rows train together in one
// lockstep run per fold member; any other target forms its own group.
func FineTuneEnsembles(bases []*Ensemble, sets [][]Sample, cfg Config) ([]*Ensemble, error) {
	if len(bases) != len(sets) {
		return nil, fmt.Errorf("ann: %d base ensembles for %d sample sets", len(bases), len(sets))
	}
	packed := make([]*dataSet, len(sets))
	for i, base := range bases {
		if base == nil || len(base.Nets) == 0 || base.Scaler == nil {
			return nil, setErr(i, len(sets), errors.New("ann: fine-tuning needs a trained base ensemble"))
		}
		k := len(base.Nets)
		if k < 3 {
			return nil, setErr(i, len(sets), fmt.Errorf("ann: base ensemble has %d members, fine-tuning needs k ≥ 3", k))
		}
		if len(sets[i]) < k {
			return nil, setErr(i, len(sets), fmt.Errorf("ann: %d samples cannot fill %d folds", len(sets[i]), k))
		}
		var err error
		if packed[i], err = base.Scaler.pack(sets[i]); err != nil {
			return nil, setErr(i, len(sets), err)
		}
	}

	out := make([]*Ensemble, len(sets))
	groups, merged := groupShared(packed, func(a, b int) bool {
		return len(bases[a].Nets) == len(bases[b].Nets)
	})
	for g, ids := range groups {
		ds := merged[g]
		first := bases[ids[0]].Nets
		mcfg := cfg
		if cfg.WarmStartEpochs > 0 {
			// Fine-tuning starts next to a minimum the base member already
			// found — cap the epochs and halve the patience, exactly as
			// TrainEnsemble's warm-start mode does.
			mcfg.MaxEpochs = cfg.WarmStartEpochs
			mcfg.Patience = (cfg.Patience + 1) / 2
		}
		foldIdx := assignFolds(ds.n(), len(first), cfg.Seed)
		members, estimates, err := trainFolds(ds, foldIdx, mcfg, func(member int) []*Network {
			inits := make([]*Network, len(ids))
			for t, i := range ids {
				inits[t] = bases[i].Nets[member]
			}
			return inits
		})
		if err != nil {
			return nil, err
		}
		for t, i := range ids {
			if out[i], err = NewEnsemble(members[t], bases[i].Scaler, estimates[t]); err != nil {
				return nil, setErr(i, len(sets), err)
			}
		}
	}
	return out, nil
}
