// Package core implements ACTOR — the Adaptive Concurrency Throttling
// Optimization Runtime that is the paper's primary contribution.
//
// ACTOR instruments iterative parallel programs at phase (parallel region)
// granularity. For each phase it samples hardware performance counters for
// a few timesteps at maximal concurrency — rotating event pairs through the
// two-counter PMU, within a sampling budget of at most 20% of total
// iterations — feeds the observed event rates to an offline-trained
// predictor (an ANN ensemble, or the prior-work linear-regression baseline),
// predicts aggregate IPC for every candidate thread count and placement,
// and locks the phase to the best configuration for the rest of the run.
//
// The package provides the adaptation strategies evaluated in the paper's
// Fig. 8 — static all-cores, oracle global, oracle per-phase, and
// prediction-based — plus the online empirical-search baseline of the
// authors' earlier work.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/greenhpc/actor/internal/ann"
	"github.com/greenhpc/actor/internal/dataset"
	"github.com/greenhpc/actor/internal/mlr"
	"github.com/greenhpc/actor/internal/parallel"
	"github.com/greenhpc/actor/internal/pmu"
)

// Predictor estimates aggregate IPC on target configurations from event
// rates observed at the sampling configuration — equation (2) of the paper.
type Predictor interface {
	// Events returns the programmable events the predictor's feature
	// vector requires, in order. The returned slice is the predictor's
	// own and must not be mutated.
	Events() []pmu.Event
	// NumEvents returns len(Events()) without exposing the slice — the
	// bank's budget arithmetic calls this in a loop.
	NumEvents() int
	// TargetNames returns the target configuration names, sorted. The
	// returned slice is the predictor's own and must not be mutated.
	TargetNames() []string
	// PredictInto writes the predicted IPC of every target configuration,
	// in TargetNames order, into dst (grown when too small) and returns
	// the filled slice. It allocates nothing when dst has the capacity.
	PredictInto(dst []float64, rates pmu.Rates) []float64
	// PredictIPC is PredictInto keyed by target configuration name, for
	// callers off the serving path.
	PredictIPC(rates pmu.Rates) (map[string]float64, error)
}

// sortedTargets splits a per-target model map into name-sorted parallel
// slices — the order PredictInto reports in.
func sortedTargets[M any](targets map[string]M) ([]string, []M) {
	names := make([]string, 0, len(targets))
	for name := range targets {
		names = append(names, name)
	}
	sort.Strings(names)
	models := make([]M, len(names))
	for i, name := range names {
		models[i] = targets[name]
	}
	return names, models
}

// predictIPC keys a predictor's PredictInto values by target name.
func predictIPC(p Predictor, rates pmu.Rates) (map[string]float64, error) {
	names := p.TargetNames()
	vals := p.PredictInto(nil, rates)
	out := make(map[string]float64, len(names))
	for i, name := range names {
		out[name] = vals[i]
	}
	return out, nil
}

// featureVector extracts the predictor's feature vector into a pooled
// buffer; the caller returns it with pool.Put once the models have run.
func featureVector(pool *sync.Pool, rates pmu.Rates, events []pmu.Event) *[]float64 {
	bp, ok := pool.Get().(*[]float64)
	if !ok {
		bp = new([]float64)
	}
	*bp = rates.VectorInto(*bp, events) // keep any regrown backing array
	return bp
}

// ANNPredictor wraps one ann.Ensemble per target configuration, all sharing
// a single feature event list.
type ANNPredictor struct {
	events  []pmu.Event
	targets map[string]*ann.Ensemble
	// names and models are targets in name order, the form inference walks.
	names   []string
	models  []*ann.Ensemble
	vecPool sync.Pool // recycled feature vectors
}

// NewANNPredictor builds a predictor from per-target ensembles. All
// ensembles must expect len(events)+1 features.
func NewANNPredictor(events []pmu.Event, targets map[string]*ann.Ensemble) (*ANNPredictor, error) {
	if len(targets) == 0 {
		return nil, errors.New("core: predictor needs at least one target model")
	}
	want := len(events) + 1
	for name, e := range targets {
		if e.InputDim() != want {
			return nil, fmt.Errorf("core: target %q model expects %d features, events imply %d",
				name, e.InputDim(), want)
		}
	}
	names, models := sortedTargets(targets)
	return &ANNPredictor{events: append([]pmu.Event(nil), events...), targets: targets, names: names, models: models}, nil
}

// Events returns the feature event list (read-only; not a copy).
func (p *ANNPredictor) Events() []pmu.Event { return p.events }

// Targets returns the per-configuration ensembles (read-only; not a copy).
// Serializers walk it to flatten the bank; mutating it would corrupt the
// live predictor.
func (p *ANNPredictor) Targets() map[string]*ann.Ensemble { return p.targets }

// NumEvents returns the feature event count.
func (p *ANNPredictor) NumEvents() int { return len(p.events) }

// TargetNames returns the target configuration names, sorted (read-only).
func (p *ANNPredictor) TargetNames() []string { return p.names }

// PredictInto evaluates every target ensemble on the rates, in TargetNames
// order.
func (p *ANNPredictor) PredictInto(dst []float64, rates pmu.Rates) []float64 {
	bp := featureVector(&p.vecPool, rates, p.events)
	dst = slices.Grow(dst[:0], len(p.models))
	for _, e := range p.models {
		dst = append(dst, e.Predict(*bp))
	}
	p.vecPool.Put(bp)
	return dst
}

// PredictIPC evaluates every target ensemble on the rates.
func (p *ANNPredictor) PredictIPC(rates pmu.Rates) (map[string]float64, error) {
	return predictIPC(p, rates)
}

// MLRPredictor is the regression-baseline equivalent of ANNPredictor.
type MLRPredictor struct {
	events  []pmu.Event
	targets map[string]*mlr.Model
	names   []string // targets in name order, as in ANNPredictor
	models  []*mlr.Model
	vecPool sync.Pool
}

// NewMLRPredictor builds a linear-regression predictor from per-target
// models.
func NewMLRPredictor(events []pmu.Event, targets map[string]*mlr.Model) (*MLRPredictor, error) {
	if len(targets) == 0 {
		return nil, errors.New("core: predictor needs at least one target model")
	}
	want := len(events) + 1
	for name, m := range targets {
		if m.InputDim() != want {
			return nil, fmt.Errorf("core: target %q model expects %d features, events imply %d",
				name, m.InputDim(), want)
		}
	}
	names, models := sortedTargets(targets)
	return &MLRPredictor{events: append([]pmu.Event(nil), events...), targets: targets, names: names, models: models}, nil
}

// Events returns the feature event list (read-only; not a copy).
func (p *MLRPredictor) Events() []pmu.Event { return p.events }

// Targets returns the per-configuration linear models (read-only; not a
// copy).
func (p *MLRPredictor) Targets() map[string]*mlr.Model { return p.targets }

// NumEvents returns the feature event count.
func (p *MLRPredictor) NumEvents() int { return len(p.events) }

// TargetNames returns the target configuration names, sorted (read-only).
func (p *MLRPredictor) TargetNames() []string { return p.names }

// PredictInto evaluates every target model on the rates, in TargetNames
// order.
func (p *MLRPredictor) PredictInto(dst []float64, rates pmu.Rates) []float64 {
	bp := featureVector(&p.vecPool, rates, p.events)
	dst = slices.Grow(dst[:0], len(p.models))
	for _, m := range p.models {
		dst = append(dst, m.Predict(*bp))
	}
	p.vecPool.Put(bp)
	return dst
}

// PredictIPC evaluates every target model on the rates.
func (p *MLRPredictor) PredictIPC(rates pmu.Rates) (map[string]float64, error) {
	return predictIPC(p, rates)
}

// Bank holds predictors for several feature-set sizes so the runtime can
// fall back to a reduced event set when an application's iteration count
// leaves too small a sampling budget (the paper's FT/IS/MG fallback).
// Predictors are kept sorted by descending feature count.
type Bank struct {
	predictors []Predictor
}

// NewBank assembles a bank, ordering predictors by descending event count.
func NewBank(preds ...Predictor) (*Bank, error) {
	if len(preds) == 0 {
		return nil, errors.New("core: empty predictor bank")
	}
	ps := append([]Predictor(nil), preds...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].NumEvents() > ps[j].NumEvents() })
	return &Bank{predictors: ps}, nil
}

// Select returns the richest predictor whose event rotation fits within
// maxRounds timesteps on a counter file of the given width, falling back to
// the smallest predictor when none fit. It allocates nothing.
func (b *Bank) Select(maxRounds, counterWidth int) Predictor {
	for _, p := range b.predictors {
		need := (p.NumEvents() + counterWidth - 1) / counterWidth
		if need <= maxRounds {
			return p
		}
	}
	return b.predictors[len(b.predictors)-1]
}

// Predictors returns the bank contents (descending feature count).
func (b *Bank) Predictors() []Predictor {
	return append([]Predictor(nil), b.predictors...)
}

// TrainANNBank trains one ANN ensemble per (feature set, target config)
// from the phase samples, returning a bank with one predictor per feature
// set. eventCounts lists the feature-set sizes (e.g. 12, 4, 2); targets
// lists target configuration names; folds is the cross-validation k.
func TrainANNBank(samples []dataset.PhaseSample, eventCounts []int, targets []string, folds int, cfg ann.Config) (*Bank, error) {
	// Feature sets are independent training problems; fan them out. Each
	// set's folds fan out one level further inside TrainEnsembles, which
	// trains the set's targets in lockstep.
	preds, err := parallel.Map(len(eventCounts), func(i int) (Predictor, error) {
		ec := eventCounts[i]
		events := pmu.ReducedEventSet((ec + 1) / 2)
		if len(events) > ec {
			events = events[:ec]
		}
		// Feature vectors are target-independent: extract them once and
		// share them across every target's training set.
		byTarget, err := dataset.ToSamplesMulti(samples, events, targets)
		if err != nil {
			return nil, err
		}
		ensembles, err := ann.TrainEnsembles(targetSets(byTarget, targets), folds, cfg)
		if err != nil {
			return nil, fmt.Errorf("train ANN (events=%d, targets %v): %w", ec, targets, err)
		}
		return NewANNPredictor(events, targetModels(targets, ensembles))
	})
	if err != nil {
		return nil, err
	}
	return NewBank(preds...)
}

// targetSets lists the per-target sample sets in targets order.
func targetSets(byTarget map[string][]ann.Sample, targets []string) [][]ann.Sample {
	sets := make([][]ann.Sample, len(targets))
	for i, t := range targets {
		sets[i] = byTarget[t]
	}
	return sets
}

// targetModels keys ensembles (in targets order) by target name.
func targetModels(targets []string, ensembles []*ann.Ensemble) map[string]*ann.Ensemble {
	models := make(map[string]*ann.Ensemble, len(targets))
	for i, t := range targets {
		models[t] = ensembles[i]
	}
	return models
}

// TrainMLRBank is the linear-regression counterpart of TrainANNBank.
func TrainMLRBank(samples []dataset.PhaseSample, eventCounts []int, targets []string, ridge float64) (*Bank, error) {
	var preds []Predictor
	for _, ec := range eventCounts {
		events := pmu.ReducedEventSet((ec + 1) / 2)
		if len(events) > ec {
			events = events[:ec]
		}
		byTarget, err := dataset.ToSamplesMulti(samples, events, targets)
		if err != nil {
			return nil, err
		}
		models := make(map[string]*mlr.Model, len(targets))
		for _, t := range targets {
			m, err := mlr.Fit(byTarget[t], ridge)
			if err != nil {
				return nil, fmt.Errorf("train MLR (events=%d, target=%s): %w", ec, t, err)
			}
			models[t] = m
		}
		p, err := NewMLRPredictor(events, models)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	return NewBank(preds...)
}
