package ann

import (
	"errors"
	"testing"
)

// Test-side entry points. No shipped code trains a lone network or
// fine-tunes a lone ensemble — banks train through TrainEnsembles and
// FineTuneEnsembles — so these forms live beside the tests and benchmarks
// that drive them, each a thin call into the same trainCore, together with
// the helpers that hand them normalised samples and score the result.

// normalise maps samples through sc: the pre-normalised form Train takes.
func normalise(sc *Scaler, samples []Sample) []Sample {
	out := make([]Sample, len(samples))
	for i, s := range samples {
		out[i] = Sample{X: sc.XInto(nil, s.X), Y: sc.Y(s.Y)}
	}
	return out
}

// packSamples packs already-normalised samples verbatim.
func packSamples(samples []Sample, d int) (*dataSet, error) {
	return packWith(samples, d,
		func(dst, x []float64) { copy(dst, x) },
		func(y float64) float64 { return y })
}

// setMSE returns n's mean squared error over normalised samples.
func setMSE(t testing.TB, n *Network, set []Sample) float64 {
	t.Helper()
	ds, err := packSamples(set, n.InputDim())
	if err != nil {
		t.Fatal(err)
	}
	return n.mseIdx(ds, ds.y[0], identityIdx(ds.n()))
}

// Train fits a network to train, early-stopping on valid. The returned
// network is the snapshot with the best validation error seen (not the last
// epoch's weights). Inputs must be pre-normalised; see Scaler.
func Train(train, valid []Sample, cfg Config) (*Network, TrainResult, error) {
	return TrainFrom(nil, train, valid, cfg)
}

// TrainFrom is Train with a warm start: when init is non-nil, training
// fine-tunes a copy of init's weights instead of a fresh random
// initialisation (init itself is never mutated). The init topology must
// be [len(x), Hidden, 1] for the samples' x. cfg.Seed still
// drives the epoch shuffles, so fine-tuning is deterministic.
func TrainFrom(init *Network, train, valid []Sample, cfg Config) (*Network, TrainResult, error) {
	if len(train) == 0 {
		return nil, TrainResult{}, errors.New("ann: empty training set")
	}
	inDim := len(train[0].X)
	ds, err := packSamples(train, inDim)
	if err != nil {
		return nil, TrainResult{}, err
	}
	vds, err := packSamples(valid, inDim)
	if err != nil {
		return nil, TrainResult{}, err
	}
	var inits []*Network
	if init != nil {
		inits = []*Network{init}
	}
	nets, res, err := trainCore(ds, identityIdx(ds.n()), vds, identityIdx(vds.n()), inits, cfg)
	if err != nil {
		return nil, TrainResult{}, err
	}
	return nets[0], res[0], nil
}

// FineTuneEnsemble is FineTuneEnsembles for one base ensemble.
func FineTuneEnsemble(base *Ensemble, samples []Sample, cfg Config) (*Ensemble, error) {
	ens, err := FineTuneEnsembles([]*Ensemble{base}, [][]Sample{samples}, cfg)
	if err != nil {
		return nil, err
	}
	return ens[0], nil
}

// identityIdx returns [0, 1, …, n).
func identityIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
