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

	// stack is the members' packed inference form (stack.go), built by
	// NewEnsemble; Predict runs on it alone.
	stack *stack
	// pool recycles Predict's scratch: the normalised input followed by
	// the stack's lane activations.
	pool sync.Pool
}

// NewEnsemble assembles an ensemble from trained members and the scaler
// they were trained under, and packs the members for stacked inference.
// Every member must be an [inputs, Hidden, 1] network taking the scaler's
// feature count, and the scaler must be usable: a
// standard deviation that is not positive or an inverted target range would
// turn every prediction into ±Inf or NaN. Nets is read-only from here on —
// the stack holds a copy of the members' weights.
func NewEnsemble(nets []*Network, scaler *Scaler, estimateMSE float64) (*Ensemble, error) {
	if len(nets) == 0 {
		return nil, errors.New("ann: ensemble has no member networks")
	}
	if scaler == nil {
		return nil, errors.New("ann: ensemble has no scaler")
	}
	if len(scaler.Mean) != len(scaler.Std) {
		return nil, errors.New("ann: scaler mean/std length mismatch")
	}
	for i, n := range nets {
		if n == nil {
			return nil, fmt.Errorf("ann: ensemble member %d is nil", i)
		}
		if err := checkSizes(n.Sizes); err != nil {
			return nil, fmt.Errorf("ann: net %d: %w", i, err)
		}
		if n.InputDim() != len(scaler.Mean) {
			return nil, fmt.Errorf("ann: net %d: input dim %d does not match the scaler's %d features",
				i, n.InputDim(), len(scaler.Mean))
		}
	}
	for i, sd := range scaler.Std {
		if !(sd > 0) {
			return nil, fmt.Errorf("ann: scaler std[%d] = %v, must be positive", i, sd)
		}
	}
	if !(scaler.YMax >= scaler.YMin) {
		return nil, fmt.Errorf("ann: scaler target range is inverted (ymin %v, ymax %v)", scaler.YMin, scaler.YMax)
	}
	return &Ensemble{Nets: nets, Scaler: scaler, EstimateMSE: estimateMSE, stack: newStack(nets)}, nil
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
	ens, err := TrainEnsembles([][]Sample{samples}, k, cfg)
	if err != nil {
		return nil, err
	}
	return ens[0], nil
}

// TrainEnsembles builds one k-fold ensemble per sample set under one cfg —
// ensemble i is bit-identical to TrainEnsemble(sets[i], k, cfg). Sets whose
// feature vectors are bitwise identical (the targets of one feature set, as
// dataset.ToSamplesMulti produces them) share their fold assignment,
// initial weights and every mini-batch, so each fold member and the
// warm-start base train them together in one lockstep run (trainCore).
func TrainEnsembles(sets [][]Sample, k int, cfg Config) ([]*Ensemble, error) {
	if k < 3 {
		return nil, errors.New("ann: ensemble needs k ≥ 3 folds (train/stop/estimate)")
	}
	scalers := make([]*Scaler, len(sets))
	packed := make([]*dataSet, len(sets))
	for i, samples := range sets {
		if len(samples) < k {
			return nil, setErr(i, len(sets), fmt.Errorf("ann: %d samples cannot fill %d folds", len(samples), k))
		}
		scaler, err := FitScaler(samples)
		if err != nil {
			return nil, setErr(i, len(sets), err)
		}
		if packed[i], err = scaler.pack(samples); err != nil {
			return nil, setErr(i, len(sets), err)
		}
		scalers[i] = scaler
	}

	out := make([]*Ensemble, len(sets))
	groups, merged := groupShared(packed, nil)
	for g, ids := range groups {
		ds := merged[g]
		foldIdx := assignFolds(ds.n(), k, cfg.Seed)
		mcfg := cfg
		var bases []*Network
		if cfg.WarmStartEpochs > 0 {
			var trainIdx []int
			for f := 1; f < k; f++ {
				trainIdx = append(trainIdx, foldIdx[f]...)
			}
			bcfg := cfg
			bcfg.Seed = cfg.Seed ^ 0x7a57 // bases draw their own init/shuffle stream
			var err error
			if bases, _, err = trainCore(ds, trainIdx, ds, foldIdx[0], nil, bcfg); err != nil {
				return nil, err
			}
			// Fine-tuning starts next to a minimum the base already found,
			// so cap the epochs and halve the patience — a fold whose
			// validation error stalls this close to convergence is done,
			// not warming up.
			mcfg.MaxEpochs = cfg.WarmStartEpochs
			mcfg.Patience = (cfg.Patience + 1) / 2
		}
		members, estimates, err := trainFolds(ds, foldIdx, mcfg, func(int) []*Network { return bases })
		if err != nil {
			return nil, err
		}
		for t, i := range ids {
			if out[i], err = NewEnsemble(members[t], scalers[i], estimates[t]); err != nil {
				return nil, setErr(i, len(sets), err)
			}
		}
	}
	return out, nil
}

// setErr names the failing set when there is more than one.
func setErr(i, n int, err error) error {
	if n == 1 {
		return err
	}
	return fmt.Errorf("set %d: %w", i, err)
}

// assignFolds deals the n corpus rows into k folds by a deterministic
// shuffle under seed: fold f holds the rows assigned to it, in assignment
// order — the same sample sequence the copying implementation produced.
func assignFolds(n, k int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	foldIdx := make([][]int, k)
	for i, id := range rng.Perm(n) {
		foldIdx[i%k] = append(foldIdx[i%k], id)
	}
	return foldIdx
}

// trainFolds trains the k = len(foldIdx) fold members of every target of
// ds, the members concurrently and each member's targets in lockstep:
// member m early-stops on fold m, estimates on fold (m+1) mod k, trains on
// the rest under seed cfg.Seed + 7919·m, and starts from init(m) (nil:
// cold start). It returns the members per target and each target's
// EstimateMSE, the mean of its members' estimate-fold errors.
func trainFolds(ds *dataSet, foldIdx [][]int, cfg Config, init func(member int) []*Network) ([][]*Network, []float64, error) {
	k, targets := len(foldIdx), len(ds.y)
	nets := make([][]*Network, k)
	estimates := make([][]float64, k)
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
		got, _, err := trainCore(ds, trainIdx, ds, foldIdx[stopFold], init(member), mcfg)
		if err != nil {
			errs[member] = err
			return
		}
		nets[member] = got
		estimates[member] = make([]float64, targets)
		for t, net := range got {
			estimates[member][t] = net.mseIdx(ds, ds.y[t], foldIdx[estFold])
		}
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, nil, err
	}
	members := make([][]*Network, targets)
	means := make([]float64, targets)
	for t := range members {
		members[t] = make([]*Network, k)
		var sum float64
		for m := range nets {
			members[t][m] = nets[m][t]
			sum += estimates[m][t]
		}
		means[t] = sum / float64(k)
	}
	return members, means, nil
}

// Predict returns the ensemble's prediction for a raw (unnormalised)
// feature vector, in raw target units. It is safe for concurrent use and
// allocates nothing in steady state.
func (e *Ensemble) Predict(x []float64) float64 {
	s := e.stack
	if len(x) != s.inDim {
		panic(fmt.Sprintf("ann: input dim %d, want %d", len(x), s.inDim))
	}
	bp, ok := e.pool.Get().(*[]float64)
	if !ok {
		bp = new([]float64)
	}
	if cap(*bp) < s.inDim+s.lanes {
		*bp = make([]float64, s.inDim+s.lanes)
	}
	buf := (*bp)[:s.inDim+s.lanes]
	sum := s.sum(e.Scaler.XInto(buf[:s.inDim], x), buf[s.inDim:])
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
