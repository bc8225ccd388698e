package exp

import (
	"fmt"
	"io"

	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/dataset"
	"github.com/greenhpc/actor/internal/metrics"
	"github.com/greenhpc/actor/internal/report"
	"github.com/greenhpc/actor/internal/workload"
)

// GeneralizeResult evaluates the paper's deployment claim — "the model
// would generally be trained a single time with a given set of training
// applications, and would subsequently be used for any desired
// application" — by training on the NPB suite and predicting a population
// of never-seen random applications.
type GeneralizeResult struct {
	Apps int
	// MedianErr is the median relative IPC prediction error across every
	// (random phase, target config) prediction.
	MedianErr float64
	// Rank1 is the fraction of random phases whose selected configuration
	// is the true best.
	Rank1 float64
	// WorstPick is the fraction of phases where the worst configuration
	// was selected (safety property; should be ≈ 0).
	WorstPick float64
	// Errors holds every scored error (for CDFs).
	Errors []float64
}

// Generalize trains a full-event ANN bank on the complete NPB suite, then
// evaluates it on `apps` randomly generated applications.
func (s *Suite) Generalize(apps int) (*GeneralizeResult, error) {
	if apps < 1 {
		return nil, fmt.Errorf("exp: need at least one app")
	}
	collector := s.newCollector()
	collector.Repetitions = s.Opts.Repetitions
	suiteSamples, err := collector.CollectSuite(s.Benches)
	if err != nil {
		return nil, err
	}
	var train []dataset.PhaseSample
	for _, b := range s.Benches {
		train = append(train, suiteSamples[b.Name]...)
	}
	targets := s.Targets()
	bank, err := core.TrainANNBank(train, []int{12}, targets, s.Opts.Folds, s.Opts.ANN)
	if err != nil {
		return nil, err
	}
	pred := bank.Predictors()[0]

	pop, err := workload.GeneratePopulation("RAND", apps, workload.DefaultGenConfig(s.Opts.Seed+777))
	if err != nil {
		return nil, err
	}
	at, err := targetIndex(pred, targets)
	if err != nil {
		return nil, err
	}
	res := &GeneralizeResult{Apps: apps}
	hist := metrics.NewRankHistogram(len(s.Configs))
	sampleName := s.SampleConfig().Name
	var vals []float64
	for _, b := range pop {
		collector := s.newCollector()
		collector.Repetitions = 1
		samples, err := collector.CollectBenchmark(b)
		if err != nil {
			return nil, err
		}
		for pi, ps := range samples {
			vals = pred.PredictInto(vals, ps.Rates)
			for ti, tgt := range targets {
				res.Errors = append(res.Errors,
					metrics.RelativeError(ps.MeasuredIPC[tgt], vals[at[ti]]))
			}
			ranking := core.RankConfigsByTime(&b.Phases[pi], b.Idiosyncrasy, s.Truth, s.Configs)
			hist.Add(ranking, core.Decide(pred, vals, sampleName, ps.Rates))
		}
	}
	res.MedianErr, err = metrics.Median(res.Errors)
	if err != nil {
		return nil, err
	}
	res.Rank1 = hist.Fraction(1)
	res.WorstPick = hist.Fraction(len(s.Configs))
	return res, nil
}

// Render prints the generalisation summary.
func (r *GeneralizeResult) Render(w io.Writer) {
	report.Section(w, fmt.Sprintf("Generalization: NPB-trained model on %d random unseen applications", r.Apps))
	report.KV(w, "median prediction error", "%.1f%%", r.MedianErr*100)
	report.KV(w, "best config selected", "%.1f%%", r.Rank1*100)
	report.KV(w, "worst config selected", "%.1f%%", r.WorstPick*100)
	report.KV(w, "predictions scored", "%d", len(r.Errors))
}
