package actor

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/workload"
)

// TestServedDecisionRegret scores the one decision ACTOR makes per phase.
// For every phase of the fast suite it samples the counters a run would
// sample — the events of the predictor the runtime selects for the
// benchmark's budget, plus the IPC, from a campaign the bank never trained
// on — asks an in-process Server for its ranking, and checks that:
//   - the served top configuration is the one core.Decide, the runtime's
//     decision step, picks from the same rates;
//   - on the noiseless truth machine its time and ED² stay close to the
//     best over the whole configuration space. The median and p95 of both
//     ratios are held to bands around their measured values, like the
//     Fig. 6–8 bands in internal/exp.
func TestServedDecisionRegret(t *testing.T) {
	eng, err := New(WithFast())
	if err != nil {
		t.Fatal(err)
	}
	bank, err := eng.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	s := eng.suite
	samples, err := eng.collectCampaign(noise.New(7))
	if err != nil {
		t.Fatal(err)
	}

	sample := s.SampleConfig().Name
	dst := make([]machine.Result, len(s.Configs))
	var timeRatios, ed2Ratios []float64
	seen := make(map[[2]string]bool)
	for _, ps := range samples {
		key := [2]string{ps.Bench, ps.Phase}
		if seen[key] {
			continue // one sampling pass per phase, as at run time
		}
		seen[key] = true
		bi := slices.IndexFunc(s.Benches, func(b *workload.Benchmark) bool { return b.Name == ps.Bench })
		b := s.Benches[bi]
		pi := slices.IndexFunc(b.Phases, func(p workload.PhaseProfile) bool { return p.Name == ps.Phase })

		pred := bank.bank.Select(pmu.SamplingBudget(b.Iterations, pmu.MaxSampleFraction))
		var sampled pmu.Rates
		sampled.Set(pmu.Instructions, ps.Rates.V[pmu.Instructions])
		body := PredictRequest{Rates: Rates{"IPC": ps.Rates.V[pmu.Instructions]}}
		for _, e := range pred.Events() {
			sampled.Set(e, ps.Rates.V[e])
			body.Rates[e.String()] = ps.Rates.V[e]
		}
		want := core.Decide(pred, pred.PredictInto(nil, &sampled), sample, &sampled)

		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(string(raw))))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s/%s: predict = %d: %s", ps.Bench, ps.Phase, rec.Code, rec.Body)
		}
		var resp PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		got := resp.Predictions[0].Config
		if got != want || resp.Best != want {
			t.Errorf("%s/%s: served top %q (best %q), runtime decision %q", ps.Bench, ps.Phase, got, resp.Best, want)
		}

		s.Truth.RunPhaseSweep(&b.Phases[pi], b.Idiosyncrasy, s.Configs, dst)
		bestT, bestED2 := math.Inf(1), math.Inf(1)
		var gotT, gotED2 float64
		for ci, cfg := range s.Configs {
			tm := dst[ci].TimeSec
			ed2 := s.Power.Power(dst[ci].Activity) * tm * tm * tm
			bestT, bestED2 = math.Min(bestT, tm), math.Min(bestED2, ed2)
			if cfg.Name == got {
				gotT, gotED2 = tm, ed2
			}
		}
		timeRatios = append(timeRatios, gotT/bestT)
		ed2Ratios = append(ed2Ratios, gotED2/bestED2)
	}

	if len(timeRatios) != 59 {
		t.Errorf("scored %d phases, want the suite's 59", len(timeRatios))
	}
	quantile := func(xs []float64, q float64) float64 {
		xs = slices.Clone(xs)
		slices.Sort(xs)
		return xs[int(q*float64(len(xs)-1))]
	}
	for _, c := range []struct {
		name   string
		ratios []float64
		q      float64
		lo, hi float64
	}{
		// Measured (seed 42 bank, seed 7 campaign): 1.0000, 1.1060, 1.0000
		// and 1.3871.
		{"median time", timeRatios, 0.5, 1, 1.02},
		{"p95 time", timeRatios, 0.95, 1, 1.20},
		{"median ED²", ed2Ratios, 0.5, 1, 1.05},
		{"p95 ED²", ed2Ratios, 0.95, 1, 1.60},
	} {
		if r := quantile(c.ratios, c.q); !(r >= c.lo && r <= c.hi) {
			t.Errorf("%s of the served decision over the oracle = %.4f, want within [%g, %g]", c.name, r, c.lo, c.hi)
		} else {
			t.Logf("%s ratio %.4f", c.name, r)
		}
	}
}
