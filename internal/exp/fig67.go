package exp

import (
	"fmt"
	"io"
	"slices"

	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/dataset"
	"github.com/greenhpc/actor/internal/metrics"
	"github.com/greenhpc/actor/internal/parallel"
	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/report"
)

// LOOModels holds everything the prediction experiments share: the
// collected counter samples and one leave-one-out predictor bank per
// benchmark (each trained without ever seeing its benchmark's data).
type LOOModels struct {
	// SuiteSamples maps benchmark name → collected phase samples.
	SuiteSamples map[string][]dataset.PhaseSample
	// Banks maps benchmark name → the predictor bank trained with that
	// benchmark excluded.
	Banks map[string]*core.Bank
	// EventCounts maps benchmark name → the feature-set size its
	// sampling budget allows (12 for long-running codes; reduced for
	// FT, IS, MG).
	EventCounts map[string]int
}

// TrainLeaveOneOut collects counter samples for the whole suite and trains
// one ANN predictor bank per benchmark under the paper's leave-one-out
// protocol. This is the expensive step shared by Figs. 6, 7 and 8.
//
// Both stages run on the parallel engine: collection fans out across
// (benchmark × phase × repetition) with per-task noise streams, and
// training fans out across (held-out benchmark × target configuration ×
// fold). Per-task seeds derive from (Options.Seed, task key), so the result
// is bit-identical at any GOMAXPROCS.
func (s *Suite) TrainLeaveOneOut() (*LOOModels, error) {
	collector := s.newCollector()
	collector.Repetitions = s.Opts.Repetitions
	collector.NoiseBase = s.noiseBase.Fork("collect")
	suiteSamples, err := collector.CollectSuite(s.Benches)
	if err != nil {
		return nil, err
	}
	out := &LOOModels{
		SuiteSamples: suiteSamples,
		Banks:        make(map[string]*core.Bank, len(s.Benches)),
		EventCounts:  make(map[string]int, len(s.Benches)),
	}
	type looBank struct {
		bank       *core.Bank
		eventCount int
	}
	targets := s.Targets()
	banks, err := parallel.Map(len(s.Benches), func(i int) (looBank, error) {
		b := s.Benches[i]
		budget := pmu.SamplingBudget(b.Iterations, pmu.MaxSampleFraction)
		events := pmu.ReducedEventSet(budget)
		train := dataset.LeaveOneOut(suiteSamples, b.Name)
		cfg := s.Opts.ANN
		cfg.Seed = parallel.SeedFor(s.Opts.Seed, "loo/"+b.Name)
		bank, err := core.TrainANNBank(train, []int{len(events)}, targets, s.Opts.Folds, cfg)
		if err != nil {
			return looBank{}, fmt.Errorf("leave-one-out training for %s: %w", b.Name, err)
		}
		return looBank{bank: bank, eventCount: len(events)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range s.Benches {
		out.Banks[b.Name] = banks[i].bank
		out.EventCounts[b.Name] = banks[i].eventCount
	}
	return out, nil
}

// Fig6Result is the prediction-error distribution (paper Fig. 6).
type Fig6Result struct {
	// Errors are relative errors |(obs−pred)/obs| over every
	// (phase sample, target configuration) prediction.
	Errors []float64
	// MedianErr is the distribution median (paper: 9.1%).
	MedianErr float64
	// FracUnder5 is the share of predictions with error < 5%
	// (paper: 29.2%).
	FracUnder5 float64
	// CDF samples the distribution at 5%-spaced error levels (Fig. 6's
	// x axis).
	CDF []metrics.CDFPoint
}

// Fig7Result is the configuration-selection accuracy (paper Fig. 7).
type Fig7Result struct {
	// Hist buckets phases by the oracle rank of the configuration the
	// runtime's rule (core.Decide: highest IPC, ties to the lowest name)
	// selects (rank 1 = true best of the 5 configurations).
	Hist *metrics.RankHistogram
	// PerBench maps benchmark → selected configuration per phase.
	PerBench map[string][]string
}

// benchEval is one benchmark's share of the Fig. 6/7 evaluation, computed
// independently so benchmarks can fan out.
type benchEval struct {
	errors     []float64
	selections []string   // per-phase selected config (Fig. 7 + PerBench)
	rankings   [][]string // per-phase oracle ranking
}

// EvalPrediction runs the leave-one-out accuracy evaluation behind Figs. 6
// and 7 using previously trained models. Benchmarks are scored in parallel
// and merged in suite order, so the result is identical to a sequential
// evaluation.
func (s *Suite) EvalPrediction(loo *LOOModels) (*Fig6Result, *Fig7Result, error) {
	f6 := &Fig6Result{}
	f7 := &Fig7Result{
		Hist:     metrics.NewRankHistogram(len(s.Configs)),
		PerBench: make(map[string][]string, len(s.Benches)),
	}
	targets := s.Targets()
	sampleName := s.SampleConfig().Name
	evals, err := parallel.Map(len(s.Benches), func(i int) (benchEval, error) {
		b := s.Benches[i]
		var ev benchEval
		bank := loo.Banks[b.Name]
		budget := pmu.SamplingBudget(b.Iterations, pmu.MaxSampleFraction)
		pred := bank.Select(budget)

		samples := loo.SuiteSamples[b.Name]
		// Group the repetitions by phase, preserving order.
		byPhase := make(map[string][]dataset.PhaseSample)
		var phaseOrder []string
		for _, ps := range samples {
			if _, seen := byPhase[ps.Phase]; !seen {
				phaseOrder = append(phaseOrder, ps.Phase)
			}
			byPhase[ps.Phase] = append(byPhase[ps.Phase], ps)
		}

		at, err := targetIndex(pred, targets)
		if err != nil {
			return benchEval{}, err
		}
		var vals []float64
		for pi, phaseName := range phaseOrder {
			reps := byPhase[phaseName]
			// Fig. 6: accumulate per-target errors over every repetition.
			for _, ps := range reps {
				vals = pred.PredictInto(vals, &ps.Rates)
				for ti, tgt := range targets {
					ev.errors = append(ev.errors,
						metrics.RelativeError(ps.MeasuredIPC[tgt], vals[at[ti]]))
				}
			}
			// Fig. 7: one selection per phase, from the first repetition
			// (the runtime's single sampling pass), by the runtime's rule.
			ps := reps[0]
			vals = pred.PredictInto(vals, &ps.Rates)
			ev.selections = append(ev.selections, core.Decide(pred, vals, sampleName, &ps.Rates))
			ev.rankings = append(ev.rankings,
				core.RankConfigsByTime(&b.Phases[pi], b.Idiosyncrasy, s.Truth, s.Configs))
		}
		return ev, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, b := range s.Benches {
		ev := evals[i]
		f6.Errors = append(f6.Errors, ev.errors...)
		for pi, sel := range ev.selections {
			f7.Hist.Add(ev.rankings[pi], sel)
		}
		f7.PerBench[b.Name] = ev.selections
	}

	f6.MedianErr, err = metrics.Median(f6.Errors)
	if err != nil {
		return nil, nil, err
	}
	f6.FracUnder5 = metrics.FractionBelow(f6.Errors, 0.05)
	levels := make([]float64, 0, 21)
	for l := 0.0; l <= 1.0001; l += 0.05 {
		levels = append(levels, l)
	}
	f6.CDF = metrics.CDF(f6.Errors, levels)
	return f6, f7, nil
}

// Render prints the error CDF and headline accuracy numbers.
func (r *Fig6Result) Render(w io.Writer) {
	report.Section(w, "Figure 6: cumulative distribution of IPC prediction error (leave-one-out)")
	t := report.NewTable("", "error ≤", "% of predictions")
	for _, pt := range r.CDF {
		t.AddRow(fmt.Sprintf("%3.0f%%", pt.Value*100), fmt.Sprintf("%5.1f", pt.Fraction*100))
	}
	t.Render(w)
	report.KV(w, "median prediction error (paper 9.1%)", "%.1f%%", r.MedianErr*100)
	report.KV(w, "predictions with error < 5% (paper 29.2%)", "%.1f%%", r.FracUnder5*100)
	report.KV(w, "predictions scored", "%d", len(r.Errors))
}

// Render prints the rank-selection histogram.
func (r *Fig7Result) Render(w io.Writer) {
	report.Section(w, "Figure 7: oracle rank of the configuration selected per phase")
	t := report.NewTable("", "selected rank", "% of phases")
	for rank := 1; rank <= len(r.Hist.Counts); rank++ {
		t.AddRow(fmt.Sprintf("%d", rank), fmt.Sprintf("%5.1f", r.Hist.Fraction(rank)*100))
	}
	t.Render(w)
	report.KV(w, "best config selected (paper 59.3%)", "%.1f%%", r.Hist.Fraction(1)*100)
	report.KV(w, "second best selected (paper 28.8%)", "%.1f%%", r.Hist.Fraction(2)*100)
	worst := len(r.Hist.Counts)
	report.KV(w, "worst config selected (paper 0%)", "%.1f%%", r.Hist.Fraction(worst)*100)
	report.KV(w, "phases scored", "%d", r.Hist.Total)
}

// targetIndex maps each of targets to its position in pred's TargetNames,
// so per-target scores keep the suite's configuration order.
func targetIndex(pred *core.Predictor, targets []string) ([]int, error) {
	at := make([]int, len(targets))
	for i, tgt := range targets {
		j, ok := slices.BinarySearch(pred.TargetNames(), tgt)
		if !ok {
			return nil, fmt.Errorf("exp: predictor has no model for target %q", tgt)
		}
		at[i] = j
	}
	return at, nil
}
