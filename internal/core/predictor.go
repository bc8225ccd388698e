// Package core implements ACTOR — the Adaptive Concurrency Throttling
// Optimization Runtime that is the paper's primary contribution.
//
// ACTOR instruments iterative parallel programs at phase (parallel region)
// granularity. For each phase it samples hardware performance counters for
// a few timesteps at maximal concurrency — rotating events through the
// pmu.CounterWidth counters, within a sampling budget of at most
// pmu.MaxSampleFraction of total iterations — feeds the observed event
// rates to an offline-trained Predictor (one Model per target
// configuration: an ANN ensemble, or the prior-work linear-regression
// baseline), predicts aggregate IPC for every candidate thread count and
// placement, and locks the phase to the configuration Decide picks for the
// rest of the run.
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
	"strings"
	"sync"

	"github.com/greenhpc/actor/internal/ann"
	"github.com/greenhpc/actor/internal/dataset"
	"github.com/greenhpc/actor/internal/mlr"
	"github.com/greenhpc/actor/internal/parallel"
	"github.com/greenhpc/actor/internal/pmu"
)

// Model is one target configuration's IPC model: an ANN ensemble
// (*ann.Ensemble) or the linear-regression baseline (*mlr.Model).
type Model interface {
	// Predict maps a raw feature vector to the target's IPC.
	Predict(x []float64) float64
	// InputDim is the feature vector length the model expects.
	InputDim() int
}

// Predictor estimates aggregate IPC on target configurations from event
// rates observed at the sampling configuration — equation (2) of the paper.
// It holds one Model per target configuration, all reading one feature
// vector built from the same event list.
type Predictor struct {
	events  []pmu.Event
	names   []string  // target configuration names, sorted
	models  []Model   // models[i] predicts names[i]
	vecPool sync.Pool // recycled feature vectors
}

// NewPredictor builds a predictor from per-target models: models[i]
// predicts configuration names[i]. Every model must expect len(events)+1
// features (the programmable events plus the sampled IPC), and the names
// must be distinct.
func NewPredictor(events []pmu.Event, names []string, models []Model) (*Predictor, error) {
	if len(names) == 0 || len(names) != len(models) {
		return nil, fmt.Errorf("core: predictor needs one model per target, got %d targets and %d models", len(names), len(models))
	}
	want := len(events) + 1
	for i, m := range models {
		if m.InputDim() != want {
			return nil, fmt.Errorf("core: target %q model expects %d features, events imply %d",
				names[i], m.InputDim(), want)
		}
	}
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	p := &Predictor{
		events: append([]pmu.Event(nil), events...),
		names:  make([]string, len(names)),
		models: make([]Model, len(names)),
	}
	for i, j := range order {
		if i > 0 && names[j] == p.names[i-1] {
			return nil, fmt.Errorf("core: target %q has two models", names[j])
		}
		p.names[i], p.models[i] = names[j], models[j]
	}
	return p, nil
}

// Events returns the feature event list, in order. The slice is the
// predictor's own and must not be mutated.
func (p *Predictor) Events() []pmu.Event { return p.events }

// NumEvents returns len(Events()) — the bank's budget arithmetic.
func (p *Predictor) NumEvents() int { return len(p.events) }

// TargetNames returns the target configuration names, sorted. The slice is
// the predictor's own and must not be mutated.
func (p *Predictor) TargetNames() []string { return p.names }

// Models returns the per-target models in TargetNames order. The slice is
// the predictor's own and must not be mutated; serializers walk it.
func (p *Predictor) Models() []Model { return p.models }

// model returns the model of the named target, or nil.
func (p *Predictor) model(name string) Model {
	if i, ok := slices.BinarySearch(p.names, name); ok {
		return p.models[i]
	}
	return nil
}

// PredictInto writes the predicted IPC of every target configuration, in
// TargetNames order, into dst (grown when too small) and returns the filled
// slice. It allocates nothing when dst has the capacity.
func (p *Predictor) PredictInto(dst []float64, rates *pmu.Rates) []float64 {
	bp, ok := p.vecPool.Get().(*[]float64)
	if !ok {
		bp = new([]float64)
	}
	*bp = rates.VectorInto(*bp, p.events) // keep any regrown backing array
	dst = slices.Grow(dst[:0], len(p.models))
	for _, m := range p.models {
		dst = append(dst, m.Predict(*bp))
	}
	p.vecPool.Put(bp)
	return dst
}

// Bank holds predictors for several feature-set sizes so the runtime can
// fall back to a reduced event set when an application's iteration count
// leaves too small a sampling budget (the paper's FT/IS/MG fallback).
// Predictors are kept sorted by descending feature count.
type Bank struct {
	predictors []*Predictor
}

// NewBank assembles a bank, ordering predictors by descending event count.
func NewBank(preds ...*Predictor) (*Bank, error) {
	if len(preds) == 0 {
		return nil, errors.New("core: empty predictor bank")
	}
	ps := append([]*Predictor(nil), preds...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].NumEvents() > ps[j].NumEvents() })
	return &Bank{predictors: ps}, nil
}

// Select returns the richest predictor whose event rotation fits within
// maxRounds timesteps on the pmu.CounterWidth counters, falling back to the
// smallest predictor when none fit. It allocates nothing.
func (b *Bank) Select(maxRounds int) *Predictor {
	for _, p := range b.predictors {
		need := (p.NumEvents() + pmu.CounterWidth - 1) / pmu.CounterWidth
		if need <= maxRounds {
			return p
		}
	}
	return b.predictors[len(b.predictors)-1]
}

// Predictors returns the bank contents, richest first. The slice is the
// bank's own and must not be mutated.
func (b *Bank) Predictors() []*Predictor { return b.predictors }

// eventSet is the feature set of ec events: the head of the reduced event
// set that the shortest rotation covering ec events samples.
func eventSet(ec int) []pmu.Event {
	events := pmu.ReducedEventSet((ec + pmu.CounterWidth - 1) / pmu.CounterWidth)
	if len(events) > ec {
		events = events[:ec]
	}
	return events
}

// targetSets extracts the samples' feature vectors for events once and
// lists each target's training set, in targets order.
func targetSets(samples []dataset.PhaseSample, events []pmu.Event, targets []string) ([][]ann.Sample, error) {
	byTarget, err := dataset.ToSamplesMulti(samples, events, targets)
	if err != nil {
		return nil, err
	}
	sets := make([][]ann.Sample, len(targets))
	for i, t := range targets {
		sets[i] = byTarget[t]
	}
	return sets, nil
}

// models lists typed per-target models as Models.
func models[M Model](ms []M) []Model {
	out := make([]Model, len(ms))
	for i, m := range ms {
		out[i] = m
	}
	return out
}

// TrainANNBank trains one ANN ensemble per (feature set, target config)
// from the phase samples, returning a bank with one predictor per feature
// set. eventCounts lists the feature-set sizes (e.g. 12, 4, 2); targets
// lists target configuration names; folds is the cross-validation k.
func TrainANNBank(samples []dataset.PhaseSample, eventCounts []int, targets []string, folds int, cfg ann.Config) (*Bank, error) {
	// Feature sets are independent training problems; fan them out. Each
	// set's folds fan out one level further inside TrainEnsembles, which
	// trains the set's targets in lockstep.
	preds, err := parallel.Map(len(eventCounts), func(i int) (*Predictor, error) {
		events := eventSet(eventCounts[i])
		sets, err := targetSets(samples, events, targets)
		if err != nil {
			return nil, err
		}
		ensembles, err := ann.TrainEnsembles(sets, folds, cfg)
		if err != nil {
			return nil, fmt.Errorf("train ANN (events=%d, targets %v): %w", eventCounts[i], targets, err)
		}
		return NewPredictor(events, targets, models(ensembles))
	})
	if err != nil {
		return nil, err
	}
	return NewBank(preds...)
}

// TrainMLRBank is the linear-regression counterpart of TrainANNBank.
func TrainMLRBank(samples []dataset.PhaseSample, eventCounts []int, targets []string, ridge float64) (*Bank, error) {
	var preds []*Predictor
	for _, ec := range eventCounts {
		events := eventSet(ec)
		sets, err := targetSets(samples, events, targets)
		if err != nil {
			return nil, err
		}
		ms := make([]Model, len(targets))
		for j, t := range targets {
			if ms[j], err = mlr.Fit(sets[j], ridge); err != nil {
				return nil, fmt.Errorf("train MLR (events=%d, target=%s): %w", ec, t, err)
			}
		}
		p, err := NewPredictor(events, targets, ms)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	return NewBank(preds...)
}
