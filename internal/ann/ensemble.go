package ann

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"github.com/greenhpc/actor/internal/parallel"
)

// Ensemble is a k-fold cross-validation ensemble: k networks, each trained
// on k−2 folds with one fold for early stopping and one held out to
// estimate generalisation, predicting as the mean of all members (Section
// IV-A: "we average their outputs for the final prediction").
type Ensemble struct {
	Nets   []*Network
	Scaler *Scaler
	// EstimateMSE is the mean of the members' held-out-fold errors, an
	// unbiased estimate of ensemble-member generalisation error (in
	// normalised target units).
	EstimateMSE float64

	// pool recycles the normalised-input buffer Predict uses.
	pool sync.Pool
}

// TrainEnsemble builds a k-fold ensemble from samples. Fold assignment is a
// deterministic shuffle under cfg.Seed; member i uses fold i for early
// stopping, fold (i+1) mod k for its generalisation estimate, and the rest
// for training. Members train concurrently.
//
// Folds are index views into one packed, normalised corpus — no sample is
// copied per fold. With cfg.WarmStartEpochs > 0, a single base network is
// first trained on all folds but fold 0 (early-stopping on fold 0), and
// every member then fine-tunes a copy of the base weights for at most
// WarmStartEpochs epochs on its own folds. The base has seen each member's
// estimate fold, so EstimateMSE is slightly optimistic in warm-start mode;
// the paper-level leave-one-out evaluation is unaffected because the
// held-out benchmark never enters any fold.
func TrainEnsemble(samples []Sample, k int, cfg Config) (*Ensemble, error) {
	if k < 3 {
		return nil, errors.New("ann: ensemble needs k ≥ 3 folds (train/stop/estimate)")
	}
	if len(samples) < k {
		return nil, fmt.Errorf("ann: %d samples cannot fill %d folds", len(samples), k)
	}
	scaler, err := FitScaler(samples)
	if err != nil {
		return nil, err
	}
	ds, err := scaler.pack(samples)
	if err != nil {
		return nil, err
	}

	// Deterministic shuffled fold assignment: fold f holds the packed rows
	// assigned to it, in assignment order — the same sample sequence the
	// copying implementation produced.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	idx := rng.Perm(ds.n())
	foldIdx := make([][]int, k)
	for i, id := range idx {
		f := i % k
		foldIdx[f] = append(foldIdx[f], id)
	}

	var base *Network
	if cfg.WarmStartEpochs > 0 {
		var trainIdx []int
		for f := 1; f < k; f++ {
			trainIdx = append(trainIdx, foldIdx[f]...)
		}
		bcfg := cfg
		bcfg.Seed = cfg.Seed ^ 0x7a57 // base draws its own init/shuffle stream
		base, _, err = trainCore(ds, trainIdx, ds, foldIdx[0], nil, bcfg)
		if err != nil {
			return nil, err
		}
	}

	ens := &Ensemble{Nets: make([]*Network, k), Scaler: scaler}
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
		if base != nil {
			// Fine-tuning starts next to a minimum the base already
			// found, so cap the epochs and halve the patience — a fold
			// whose validation error stalls this close to convergence
			// is done, not warming up.
			mcfg.MaxEpochs = cfg.WarmStartEpochs
			mcfg.Patience = (cfg.Patience + 1) / 2
		}
		net, _, err := trainCore(ds, trainIdx, ds, foldIdx[stopFold], base, mcfg)
		if err != nil {
			errs[member] = err
			return
		}
		ens.Nets[member] = net
		estimates[member] = net.mseIdx(ds, foldIdx[estFold])
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	var sum float64
	for _, e := range estimates {
		sum += e
	}
	ens.EstimateMSE = sum / float64(k)
	return ens, nil
}

// Predict returns the ensemble's prediction for a raw (unnormalised)
// feature vector, in raw target units. It is safe for concurrent use and
// allocates nothing in steady state.
func (e *Ensemble) Predict(x []float64) float64 {
	bp, ok := e.pool.Get().(*[]float64)
	if !ok {
		bp = new([]float64)
	}
	nx := e.Scaler.XInto(*bp, x)
	*bp = nx // keep any regrown backing array
	var sum float64
	for _, n := range e.Nets {
		sum += n.Predict(nx)
	}
	e.pool.Put(bp)
	return e.Scaler.InvY(sum / float64(len(e.Nets)))
}

// InputDim returns the expected raw feature dimension.
func (e *Ensemble) InputDim() int {
	if len(e.Nets) == 0 {
		return 0
	}
	return e.Nets[0].InputDim()
}
