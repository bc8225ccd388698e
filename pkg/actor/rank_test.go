package actor

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/pmu"
)

// TestRankPredictionsTieBreak pins the ranking's determinism: equal-IPC
// configurations order by name, so the served ranking is a pure function of
// the prediction set — identical across input permutations, runs and
// GOMAXPROCS settings. The serving memo depends on this: a cached response
// must be the response the miss path would produce every time.
func TestRankPredictionsTieBreak(t *testing.T) {
	base := []Prediction{
		{Config: "4x2", IPC: 2.5},
		{Config: "2x4", IPC: 2.5},
		{Config: "1x8", IPC: 2.5},
		{Config: "8x1", IPC: 2.5, Observed: true},
		{Config: "2x2", IPC: 1.5},
		{Config: "1x1", IPC: 1.5},
		{Config: "1x2", IPC: 3.5},
	}
	want := []Prediction{
		{Config: "1x2", IPC: 3.5},
		{Config: "1x8", IPC: 2.5},
		{Config: "2x4", IPC: 2.5},
		{Config: "4x2", IPC: 2.5},
		{Config: "8x1", IPC: 2.5, Observed: true},
		{Config: "1x1", IPC: 1.5},
		{Config: "2x2", IPC: 1.5},
	}
	rng := rand.New(rand.NewSource(1))
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for trial := 0; trial < 64; trial++ {
		runtime.GOMAXPROCS(1 + trial%4)
		got := append([]Prediction(nil), base...)
		rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		rankPredictions(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ranking depends on input order:\ngot:  %+v\nwant: %+v", trial, got, want)
		}
	}
}

// TestDisagreementReusesPredictPMU holds disagreement, which reads the
// values predictPMU has just left in the shared buffer, to the definition:
// the richest and the most-reduced predictor each evaluated by name, gaps
// summed in canonical configuration order. Each rate vector below makes
// predictPMU run a different predictor, so every reuse branch is taken.
func TestDisagreementReusesPredictPMU(t *testing.T) {
	eng, err := New(WithFast(), WithRepetitions(1), WithMLR(), WithEventCounts(6, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	bank, err := eng.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	preds := bank.bank.Predictors()
	byName := func(p *core.Predictor, pr pmu.Rates) map[string]float64 {
		out := make(map[string]float64)
		for i, v := range p.PredictInto(nil, pr) {
			out[p.TargetNames()[i]] = v
		}
		return out
	}
	want := func(pr pmu.Rates) float64 {
		rich, red := byName(preds[0], pr), byName(preds[len(preds)-1], pr)
		var sum float64
		n := 0
		for _, cfg := range bank.meta.Configs {
			r, okRich := rich[cfg]
			d, okRed := red[cfg]
			if !okRich || !okRed {
				continue
			}
			sum += math.Abs(r-d) / math.Max(math.Abs(r), 1e-9)
			n++
		}
		return sum / float64(n)
	}
	var buf predictBuf // reused across cases, like the pooled scratch
	for i, p := range preds {
		pr := pmu.Rates{pmu.Instructions: 1.3}
		for j, e := range p.Events() {
			pr[e] = 0.004 * float64(i+j+1)
		}
		if ran := bank.predictorFor(pr); ran != p {
			t.Fatalf("rates covering predictor %d are served by another predictor", i)
		}
		ranked := append([]Prediction(nil), bank.predictPMU(pr, &buf)...)
		got := bank.disagreement(pr, &buf)
		if math.Float64bits(got) != math.Float64bits(want(pr)) || got == 0 {
			t.Errorf("predictor %d: disagreement = %v, by definition %v", i, got, want(pr))
		}
		if !reflect.DeepEqual(ranked, buf.ranked) {
			t.Errorf("predictor %d: disagreement disturbed the ranking", i)
		}
	}
}
