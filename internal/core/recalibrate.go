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
	bases := make([][]*ann.Ensemble, len(base.predictors))
	for i, bp := range base.predictors {
		bases[i] = make([]*ann.Ensemble, len(targets))
		for j, t := range targets {
			switch m := bp.model(t).(type) {
			case *ann.Ensemble:
				bases[i][j] = m
			case nil:
				return nil, fmt.Errorf("core: base bank has no model for target %q", t)
			default:
				return nil, fmt.Errorf("core: fine-tuning an ANN bank, found a %T model", m)
			}
		}
	}
	// Predictors fan out; each one's targets fine-tune in lockstep inside
	// FineTuneEnsembles, and its folds fan out one level further.
	preds, err := parallel.Map(len(bases), func(i int) (*Predictor, error) {
		bp := base.predictors[i]
		sets, err := targetSets(samples, bp.events, targets)
		if err != nil {
			return nil, err
		}
		ensembles, err := ann.FineTuneEnsembles(bases[i], sets, cfg)
		if err != nil {
			return nil, fmt.Errorf("fine-tune ANN (events=%d, targets %v): %w", bp.NumEvents(), targets, err)
		}
		return NewPredictor(bp.events, targets, models(ensembles))
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
	var preds []*Predictor
	for _, bp := range base.predictors {
		sets, err := targetSets(samples, bp.events, targets)
		if err != nil {
			return nil, err
		}
		ms := make([]Model, len(targets))
		for j, t := range targets {
			var live *mlr.Model
			switch m := bp.model(t).(type) {
			case *mlr.Model:
				live = m
			case nil:
				return nil, fmt.Errorf("core: base bank has no model for target %q", t)
			default:
				return nil, fmt.Errorf("core: refitting an MLR bank, found a %T model", m)
			}
			fit, err := mlr.Fit(sets[j], ridge)
			if err != nil {
				return nil, fmt.Errorf("refit MLR (events=%d, target=%s): %w", bp.NumEvents(), t, err)
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
			if ms[j], err = mlr.NewModel(coef); err != nil {
				return nil, err
			}
		}
		p, err := NewPredictor(bp.events, targets, ms)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	return NewBank(preds...)
}
