package exp

import (
	"fmt"
	"io"

	"github.com/greenhpc/actor/internal/report"
	"github.com/greenhpc/actor/internal/stats"
)

// RobustnessResult reports how the reproduction's headline numbers vary
// across experiment seeds — point estimates become intervals.
type RobustnessResult struct {
	Seeds []int64
	// MedianErr, Rank1, ED2Saving hold the per-seed values of the three
	// headline metrics.
	MedianErr, Rank1, ED2Saving []float64
}

// Robustness re-runs the leave-one-out evaluation across seeds. Fidelity
// follows opts (pass FastOptions() for quick runs); opts.Seed is ignored in
// favour of the explicit list.
func Robustness(opts Options, seeds []int64) (*RobustnessResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("exp: no seeds")
	}
	res := &RobustnessResult{Seeds: seeds}
	for _, seed := range seeds {
		o := opts
		o.Seed = seed
		s, err := NewSuite(o)
		if err != nil {
			return nil, err
		}
		loo, err := s.TrainLeaveOneOut()
		if err != nil {
			return nil, err
		}
		f6, f7, err := s.EvalPrediction(loo)
		if err != nil {
			return nil, err
		}
		f8, err := s.Fig8Throttling(loo)
		if err != nil {
			return nil, err
		}
		res.MedianErr = append(res.MedianErr, f6.MedianErr)
		res.Rank1 = append(res.Rank1, f7.Hist.Fraction(1))
		res.ED2Saving = append(res.ED2Saving, 1-f8.AverageNormalized("Prediction", MetricED2))
	}
	return res, nil
}

// Render prints mean ± 95% CI for each headline metric.
func (r *RobustnessResult) Render(w io.Writer) {
	report.Section(w, fmt.Sprintf("Robustness across %d seeds (mean ± 95%% CI)", len(r.Seeds)))
	line := func(name string, vals []float64, paper float64) {
		mean, hw, err := stats.MeanCI(vals)
		if err != nil {
			fmt.Fprintf(w, "  %s: error: %v\n", name, err)
			return
		}
		report.KV(w, fmt.Sprintf("%s (paper %.1f%%)", name, paper*100),
			"%.1f%% ± %.1f%%", mean*100, hw*100)
	}
	line("median prediction error", r.MedianErr, 0.091)
	line("rank-1 selection rate", r.Rank1, 0.593)
	line("prediction ED2 saving", r.ED2Saving, 0.172)
}
