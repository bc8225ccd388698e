package ann

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/greenhpc/actor/internal/parallel"
)

// FineTuneEnsemble warm-starts a new k-fold ensemble from base on fresh
// samples: each member fine-tunes a copy of the corresponding base member's
// weights (TrainFrom semantics) under the same deterministic fold protocol
// as TrainEnsemble — member i early-stops on fold i and estimates on fold
// (i+1) mod k. The base's Scaler is reused, not refit: the member weights
// are expressed in the base's normalised feature space, so refitting the
// scaler on the new samples would silently invalidate the warm start.
//
// cfg.Hidden is ignored; the topology is taken from the base networks.
// With cfg.WarmStartEpochs > 0 each member trains at most that many epochs
// at halved patience (the fine-tune caps TrainEnsemble's warm-start mode
// uses); otherwise cfg.MaxEpochs applies. Deterministic under cfg.Seed at
// any GOMAXPROCS.
func FineTuneEnsemble(base *Ensemble, samples []Sample, cfg Config) (*Ensemble, error) {
	if base == nil || len(base.Nets) == 0 || base.Scaler == nil {
		return nil, errors.New("ann: fine-tuning needs a trained base ensemble")
	}
	k := len(base.Nets)
	if k < 3 {
		return nil, fmt.Errorf("ann: base ensemble has %d members, fine-tuning needs k ≥ 3", k)
	}
	if len(samples) < k {
		return nil, fmt.Errorf("ann: %d samples cannot fill %d folds", len(samples), k)
	}
	// The base topology drives trainCore's shape check.
	sizes := base.Nets[0].Sizes
	cfg.Hidden = append([]int(nil), sizes[1:len(sizes)-1]...)
	ds, err := base.Scaler.pack(samples)
	if err != nil {
		return nil, err
	}

	// Same deterministic shuffled fold assignment as TrainEnsemble.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	idx := rng.Perm(ds.n())
	foldIdx := make([][]int, k)
	for i, id := range idx {
		f := i % k
		foldIdx[f] = append(foldIdx[f], id)
	}

	nets := make([]*Network, k)
	estimates := make([]float64, k)
	errs := make([]error, k)
	parallel.ForEach(k, func(member int) {
		stopFold := member
		estFold := (member + 1) % k
		var trainIdx []int
		for f := range foldIdx {
			if f != stopFold && f != estFold {
				trainIdx = append(trainIdx, foldIdx[f]...)
			}
		}
		mcfg := cfg
		mcfg.Seed = cfg.Seed + int64(member)*7919
		if cfg.WarmStartEpochs > 0 {
			// Fine-tuning starts next to a minimum the base member already
			// found — cap the epochs and halve the patience, exactly as
			// TrainEnsemble's warm-start mode does.
			mcfg.MaxEpochs = cfg.WarmStartEpochs
			mcfg.Patience = (cfg.Patience + 1) / 2
		}
		net, _, err := trainCore(ds, trainIdx, ds, foldIdx[stopFold], base.Nets[member], mcfg)
		if err != nil {
			errs[member] = err
			return
		}
		nets[member] = net
		estimates[member] = net.mseIdx(ds, foldIdx[estFold])
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	var sum float64
	for _, e := range estimates {
		sum += e
	}
	return NewEnsemble(nets, base.Scaler, sum/float64(k))
}
