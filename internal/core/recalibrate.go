package core

import (
	"errors"
	"fmt"

	"github.com/greenhpc/actor/internal/ann"
	"github.com/greenhpc/actor/internal/dataset"
	"github.com/greenhpc/actor/internal/mlr"
	"github.com/greenhpc/actor/internal/parallel"
)

// FineTuneANNBank rebuilds an ANN bank from a live base: every ensemble in
// every predictor is warm-started from its live counterpart and fine-tuned
// on the fresh recalibration samples (ann.FineTuneEnsembles semantics — the
// live scaler is reused, topology and member count are preserved). The base
// bank is never mutated; predictors keep their exact event sets so the new
// bank is a drop-in replacement for the old one.
func FineTuneANNBank(base *Bank, samples []dataset.PhaseSample, targets []string, cfg ann.Config) (*Bank, error) {
	if base == nil || len(base.predictors) == 0 {
		return nil, errors.New("core: fine-tuning needs a non-empty base bank")
	}
	aps := make([]*ANNPredictor, len(base.predictors))
	for i, bp := range base.predictors {
		ap, ok := bp.(*ANNPredictor)
		if !ok {
			return nil, fmt.Errorf("core: fine-tuning an ANN bank, found %T predictor", bp)
		}
		aps[i] = ap
	}
	// Predictors fan out; each one's targets fine-tune in lockstep inside
	// FineTuneEnsembles, and its folds fan out one level further.
	preds, err := parallel.Map(len(aps), func(i int) (Predictor, error) {
		ap := aps[i]
		byTarget, err := dataset.ToSamplesMulti(samples, ap.events, targets)
		if err != nil {
			return nil, err
		}
		bases := make([]*ann.Ensemble, len(targets))
		for j, t := range targets {
			if bases[j] = ap.targets[t]; bases[j] == nil {
				return nil, fmt.Errorf("core: base bank has no model for target %q", t)
			}
		}
		ensembles, err := ann.FineTuneEnsembles(bases, targetSets(byTarget, targets), cfg)
		if err != nil {
			return nil, fmt.Errorf("fine-tune ANN (events=%d, targets %v): %w", ap.NumEvents(), targets, err)
		}
		return NewANNPredictor(ap.events, targetModels(targets, ensembles))
	})
	if err != nil {
		return nil, err
	}
	return NewBank(preds...)
}

// RefitMLRBank rebuilds an MLR bank from a live base: every linear model is
// refit on the fresh samples with the given ridge, then blended with the
// live coefficients — new = blend*live + (1-blend)*refit. blend 0 takes the
// refit outright, blend 1 keeps the live bank. Blending averages the noise
// realisations of the two characterisation campaigns, so on a stationary
// platform the blend's expected error is below either endpoint's. Event
// sets are preserved per predictor; the base bank is never mutated.
func RefitMLRBank(base *Bank, samples []dataset.PhaseSample, targets []string, ridge, blend float64) (*Bank, error) {
	if base == nil || len(base.predictors) == 0 {
		return nil, errors.New("core: refitting needs a non-empty base bank")
	}
	if blend < 0 || blend > 1 {
		return nil, fmt.Errorf("core: blend %v outside [0, 1]", blend)
	}
	var preds []Predictor
	for _, bp := range base.predictors {
		mp, ok := bp.(*MLRPredictor)
		if !ok {
			return nil, fmt.Errorf("core: refitting an MLR bank, found %T predictor", bp)
		}
		byTarget, err := dataset.ToSamplesMulti(samples, mp.events, targets)
		if err != nil {
			return nil, err
		}
		models := make(map[string]*mlr.Model, len(targets))
		for _, t := range targets {
			live, ok := mp.targets[t]
			if !ok {
				return nil, fmt.Errorf("core: base bank has no model for target %q", t)
			}
			fit, err := mlr.Fit(byTarget[t], ridge)
			if err != nil {
				return nil, fmt.Errorf("refit MLR (events=%d, target=%s): %w", mp.NumEvents(), t, err)
			}
			if len(fit.Coef) != len(live.Coef) {
				return nil, fmt.Errorf("core: refit target %q coefficient count %d, live %d",
					t, len(fit.Coef), len(live.Coef))
			}
			coef := make([]float64, len(live.Coef))
			for i := range coef {
				// Each product is rounded before the sum (no arm64 FMA),
				// so the blend has the same bits on every target.
				coef[i] = float64(blend*live.Coef[i]) + float64((1-blend)*fit.Coef[i])
			}
			m, err := mlr.NewModel(coef)
			if err != nil {
				return nil, err
			}
			models[t] = m
		}
		p, err := NewMLRPredictor(mp.events, models)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	return NewBank(preds...)
}
