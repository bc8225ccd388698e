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
	// NewEnsemble; nil when the members do not share one [d, h, 1]
	// topology, and Predict then evaluates them one by one.
	stack *stack
	// pool recycles Predict's scratch: the normalised input followed by
	// the stack's lane activations.
	pool sync.Pool
}

// NewEnsemble assembles an ensemble from trained members and the scaler
// they were trained under, and packs the members for stacked inference.
// Every member must take the scaler's feature count, and the scaler must be
// usable: a standard deviation that is not positive or an inverted target
// range would turn every prediction into ±Inf or NaN. Nets is read-only
// from here on — the stack holds a copy of the members' weights.
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
	return NewEnsemble(nets, scaler, sum/float64(k))
}

// Predict returns the ensemble's prediction for a raw (unnormalised)
// feature vector, in raw target units. It is safe for concurrent use and
// allocates nothing in steady state.
func (e *Ensemble) Predict(x []float64) float64 {
	bp, ok := e.pool.Get().(*[]float64)
	if !ok {
		bp = new([]float64)
	}
	var sum float64
	if s := e.stack; s != nil {
		if len(x) != s.inDim {
			panic(fmt.Sprintf("ann: input dim %d, want %d", len(x), s.inDim))
		}
		if cap(*bp) < s.inDim+s.lanes {
			*bp = make([]float64, s.inDim+s.lanes)
		}
		buf := (*bp)[:s.inDim+s.lanes]
		sum = s.sum(e.Scaler.XInto(buf[:s.inDim], x), buf[s.inDim:])
	} else {
		nx := e.Scaler.XInto(*bp, x)
		*bp = nx // keep any regrown backing array
		for _, n := range e.Nets {
			sum += n.Predict(nx)
		}
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
