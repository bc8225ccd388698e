package exp

import (
	"io"
	"math"
	"strings"
	"testing"

	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/metrics"
)

// newFastSuite builds the suite with reduced-fidelity training options.
func newFastSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFig1ExecutionTimes(t *testing.T) {
	s := newFastSuite(t)
	r, err := s.Fig1ExecutionTimes()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Order) != 8 {
		t.Fatalf("got %d benchmarks", len(r.Order))
	}
	// Paper shapes.
	if sp := r.Speedup("BT", "4"); sp < 2.2 || sp > 3.2 {
		t.Errorf("BT speedup(4) = %.2f, paper 2.69", sp)
	}
	if sp := r.Speedup("IS", "4"); sp > 0.85 {
		t.Errorf("IS speedup(4) = %.2f, paper 0.60 (must lose performance)", sp)
	}
	if r.TimeSec["MG"]["2b"] >= r.TimeSec["MG"]["4"] {
		t.Error("MG must be fastest on 2b")
	}
	out := render(r.Render)
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "BT") {
		t.Error("render incomplete")
	}
}

func TestFig2PhaseIPC(t *testing.T) {
	s := newFastSuite(t)
	r, err := s.Fig2PhaseIPC("SP")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Phases) != 12 {
		t.Fatalf("SP has %d phases in Fig 2", len(r.Phases))
	}
	lo, hi := r.MaxIPCRange()
	if lo > 0.6 || hi < 3.5 {
		t.Errorf("phase IPC range %.2f..%.2f too narrow (paper 0.32..4.64)", lo, hi)
	}
	best := r.BestConfigs()
	distinct := map[string]bool{}
	for _, b := range best {
		distinct[b] = true
	}
	if len(distinct) < 2 {
		t.Error("no per-phase heterogeneity in best configurations")
	}
	if _, err := s.Fig2PhaseIPC("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	out := render(r.Render)
	if !strings.Contains(out, "Figure 2") {
		t.Error("render incomplete")
	}
}

func TestFig3PowerEnergy(t *testing.T) {
	s := newFastSuite(t)
	r, err := s.Fig3PowerEnergy()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range r.Order {
		for _, c := range r.Configs {
			if r.PowerW[b][c] <= 0 || r.EnergyJ[b][c] <= 0 {
				t.Errorf("%s/%s non-positive power or energy", b, c)
			}
		}
		if r.PowerW[b]["4"] < r.PowerW[b]["1"] {
			t.Errorf("%s: power decreased with more cores", b)
		}
	}
	p, e, err := r.GeoMeanNormalized("4", "1")
	if err != nil {
		t.Fatal(err)
	}
	if p < 1.05 || p > 1.25 {
		t.Errorf("geomean power ratio = %.3f, paper ≈ 1.14", p)
	}
	if e <= 0 {
		t.Errorf("geomean energy ratio = %.3f", e)
	}
	out := render(r.Render)
	if !strings.Contains(out, "Figure 3") {
		t.Error("render incomplete")
	}
}

// trainOnce caches the expensive leave-one-out training across tests in
// this package.
var cachedLOO *LOOModels
var cachedSuite *Suite

func loadLOO(t *testing.T) (*Suite, *LOOModels) {
	t.Helper()
	if cachedLOO != nil {
		return cachedSuite, cachedLOO
	}
	s := newFastSuite(t)
	loo, err := s.TrainLeaveOneOut()
	if err != nil {
		t.Fatal(err)
	}
	cachedSuite, cachedLOO = s, loo
	return s, loo
}

func TestTrainLeaveOneOut(t *testing.T) {
	s, loo := loadLOO(t)
	if len(loo.Banks) != len(s.Benches) {
		t.Fatalf("banks for %d benchmarks, want %d", len(loo.Banks), len(s.Benches))
	}
	// Short-iteration codes get reduced event sets.
	if loo.EventCounts["FT"] >= 12 || loo.EventCounts["IS"] >= 12 || loo.EventCounts["MG"] >= 12 {
		t.Errorf("short-iteration codes kept full event sets: %v", loo.EventCounts)
	}
	if loo.EventCounts["SP"] != 12 {
		t.Errorf("SP event count = %d, want 12", loo.EventCounts["SP"])
	}
}

func TestFig6And7Accuracy(t *testing.T) {
	s, loo := loadLOO(t)
	f6, f7, err := s.EvalPrediction(loo)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 6: median error in a plausible band around the paper's 9.1%.
	if f6.MedianErr < 0.03 || f6.MedianErr > 0.20 {
		t.Errorf("median prediction error = %.1f%%, paper 9.1%%", f6.MedianErr*100)
	}
	if f6.FracUnder5 < 0.10 || f6.FracUnder5 > 0.60 {
		t.Errorf("fraction under 5%% = %.1f%%, paper 29.2%%", f6.FracUnder5*100)
	}
	if len(f6.Errors) == 0 {
		t.Fatal("no predictions scored")
	}
	// CDF is monotone and ends at ~1.
	prev := -1.0
	for _, pt := range f6.CDF {
		if pt.Fraction < prev {
			t.Error("CDF not monotone")
		}
		prev = pt.Fraction
	}

	// Fig 7: 59 phases scored; best config dominates; the worst config is
	// never selected (paper: never; allow one slip).
	if f7.Hist.Total != 59 {
		t.Errorf("scored %d phases, want 59", f7.Hist.Total)
	}
	if f7.Hist.Fraction(1) < 0.45 {
		t.Errorf("rank-1 selection rate = %.1f%%, paper 59.3%%", f7.Hist.Fraction(1)*100)
	}
	if f7.Hist.Fraction(1)+f7.Hist.Fraction(2) < 0.70 {
		t.Errorf("rank-1+2 rate = %.1f%%, paper 88.1%%",
			(f7.Hist.Fraction(1)+f7.Hist.Fraction(2))*100)
	}
	worst := len(f7.Hist.Counts)
	if f7.Hist.Counts[worst-1] > 1 {
		t.Errorf("worst config selected %d times, paper: never", f7.Hist.Counts[worst-1])
	}
	// Against doing nothing: "always 4" (Fig 8's baseline, and the suite's
	// sampling configuration, so one control stands for both) ranked over
	// the same phases on the same truth machine. It picks the best
	// configuration in about three phases of four; the predictor must beat it.
	always := s.SampleConfig().Name
	if always != "4" {
		t.Fatalf("sampling configuration %q, want 4", always)
	}
	control := metrics.NewRankHistogram(len(s.Configs))
	for _, b := range s.Benches {
		for pi := range b.Phases {
			control.Add(core.RankConfigsByTime(&b.Phases[pi], b.Idiosyncrasy, s.Truth, s.Configs), always)
		}
	}
	if control.Total != f7.Hist.Total {
		t.Fatalf("control scored %d phases, Fig 7 %d", control.Total, f7.Hist.Total)
	}
	t.Logf("rank-1 rate: predictor %.1f%%, always-%s %.1f%% (%d phases)",
		f7.Hist.Fraction(1)*100, always, control.Fraction(1)*100, control.Total)
	if f7.Hist.Fraction(1) <= control.Fraction(1) {
		t.Errorf("rank-1 rate %.1f%% does not beat always-%s's %.1f%%",
			f7.Hist.Fraction(1)*100, always, control.Fraction(1)*100)
	}
	out := render(f6.Render) + render(f7.Render)
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "Figure 7") {
		t.Error("render incomplete")
	}
}

func TestFig8Throttling(t *testing.T) {
	s, loo := loadLOO(t)
	r, err := s.Fig8Throttling(loo)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Order) != 8 {
		t.Fatalf("rows for %d benchmarks", len(r.Order))
	}
	// Paper headline shapes.
	predTime := r.AverageNormalized("Prediction", MetricTime)
	if predTime > 0.99 {
		t.Errorf("prediction average normalized time = %.3f; paper gains 6.5%%", predTime)
	}
	predED2 := r.AverageNormalized("Prediction", MetricED2)
	if predED2 > 0.95 || predED2 < 0.6 {
		t.Errorf("prediction average normalized ED2 = %.3f, paper 0.828", predED2)
	}
	phaseED2 := r.AverageNormalized("Phase Optimal", MetricED2)
	if phaseED2 > predED2+1e-9 {
		t.Errorf("phase optimal ED2 (%.3f) worse than prediction (%.3f)", phaseED2, predED2)
	}
	// Power is roughly unchanged (paper +1.5%): no large savings.
	predPower := r.AverageNormalized("Prediction", MetricPower)
	if math.Abs(predPower-1) > 0.06 {
		t.Errorf("prediction normalized power = %.3f; paper ≈ 1.015 (no power saved)", predPower)
	}
	// IS is the dramatic winner (paper 71.6% ED2 saving).
	if is := r.Normalized("IS", "Prediction", MetricED2); is > 0.55 {
		t.Errorf("IS prediction normalized ED2 = %.3f, paper 0.284", is)
	}
	// The 4-core baseline normalises to exactly 1 everywhere.
	for _, b := range r.Order {
		if v := r.Normalized(b, "4 Cores", MetricTime); math.Abs(v-1) > 1e-12 {
			t.Errorf("%s baseline normalization = %g", b, v)
		}
	}
	out := render(r.Render)
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "AVG") {
		t.Error("render incomplete")
	}
}

func render(f func(io.Writer)) string {
	var b strings.Builder
	f(&b)
	return b.String()
}
