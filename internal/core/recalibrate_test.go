package core

import (
	"testing"

	"github.com/greenhpc/actor/internal/ann"
	"github.com/greenhpc/actor/internal/dataset"
	"github.com/greenhpc/actor/internal/mlr"
	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/npb"
)

// collectRecalSamples runs a characterisation campaign whose noise stream
// forks from the given base, so two campaigns with different bases see
// different noise over identical workloads.
func collectRecalSamples(t *testing.T, env *Env, seed int64) []dataset.PhaseSample {
	t.Helper()
	collector := dataset.NewCollector(env.Machine, env.Truth)
	collector.Repetitions = 2
	collector.NoiseBase = noise.New(seed)
	var samples []dataset.PhaseSample
	for _, name := range []string{"BT", "MG", "LU"} {
		b, _ := npb.ByName(name)
		ss, err := collector.CollectBenchmark(b)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, ss...)
	}
	return samples
}

var recalTargets = []string{"1", "2a", "2b", "3"}

func TestRefitMLRBank(t *testing.T) {
	env := newEnv(t)
	base := collectRecalSamples(t, env, 11)
	live, err := TrainMLRBank(base, []int{12, 4}, recalTargets, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	fresh := collectRecalSamples(t, env, 23)

	blended, err := RefitMLRBank(live, fresh, recalTargets, 1e-6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RefitMLRBank(live, fresh, recalTargets, 1e-6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(blended.predictors) != len(live.predictors) {
		t.Fatalf("predictor count changed: %d → %d", len(live.predictors), len(blended.predictors))
	}
	coef := func(p *Predictor, tgt string) []float64 { return p.model(tgt).(*mlr.Model).Coef }
	for pi, p := range blended.predictors {
		lp, ap := live.predictors[pi], again.predictors[pi]
		if len(p.events) != len(lp.events) {
			t.Fatalf("predictor %d event count changed: %d → %d", pi, len(lp.events), len(p.events))
		}
		for _, tgt := range recalTargets {
			bc, ac := coef(p, tgt), coef(ap, tgt)
			for i := range bc {
				if bc[i] != ac[i] {
					t.Fatalf("refit not deterministic: predictor %d target %s coef %d", pi, tgt, i)
				}
			}
		}
	}

	// blend 1 keeps the live coefficients exactly.
	kept, err := RefitMLRBank(live, fresh, recalTargets, 1e-6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range kept.predictors {
		for _, tgt := range recalTargets {
			for i, c := range coef(p, tgt) {
				if c != coef(live.predictors[pi], tgt)[i] {
					t.Fatalf("blend 1 moved predictor %d target %s coef %d", pi, tgt, i)
				}
			}
		}
	}

	if _, err := RefitMLRBank(nil, fresh, recalTargets, 1e-6, 0.5); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := RefitMLRBank(live, fresh, recalTargets, 1e-6, 1.5); err == nil {
		t.Error("blend outside [0,1] accepted")
	}
}

func TestFineTuneANNBank(t *testing.T) {
	env := newEnv(t)
	base := collectRecalSamples(t, env, 31)
	cfg := ann.DefaultConfig()
	cfg.MaxEpochs = 40
	cfg.Patience = 8
	live, err := TrainANNBank(base, []int{4}, recalTargets, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := collectRecalSamples(t, env, 37)

	ftCfg := cfg
	ftCfg.Seed = 17
	ftCfg.WarmStartEpochs = 15
	tuned, err := FineTuneANNBank(live, fresh, recalTargets, ftCfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := FineTuneANNBank(live, fresh, recalTargets, ftCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuned.predictors) != len(live.predictors) {
		t.Fatalf("predictor count changed: %d → %d", len(live.predictors), len(tuned.predictors))
	}
	rates := fresh[0].Rates
	got1 := tuned.predictors[0].PredictInto(nil, rates)
	got2 := again.predictors[0].PredictInto(nil, rates)
	liveOut := live.predictors[0].PredictInto(nil, rates)
	moved := false
	for i, tgt := range tuned.predictors[0].TargetNames() {
		if got1[i] != got2[i] {
			t.Fatalf("fine-tuning not deterministic for target %s: %v vs %v", tgt, got1[i], got2[i])
		}
		if got1[i] != liveOut[i] {
			moved = true
		}
	}
	if !moved {
		t.Error("fine-tuning on a fresh campaign left every prediction bit-identical to the live bank")
	}

	// The live bank must be untouched by fine-tuning.
	liveOut2 := live.predictors[0].PredictInto(nil, rates)
	for i, tgt := range live.predictors[0].TargetNames() {
		if liveOut[i] != liveOut2[i] {
			t.Fatalf("fine-tuning mutated the live bank (target %s)", tgt)
		}
	}

	// Kind mismatches are rejected both ways.
	mlrLive, err := TrainMLRBank(base, []int{4}, recalTargets, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FineTuneANNBank(mlrLive, fresh, recalTargets, ftCfg); err == nil {
		t.Error("MLR base accepted by FineTuneANNBank")
	}
	if _, err := RefitMLRBank(live, fresh, recalTargets, 1e-6, 0.5); err == nil {
		t.Error("ANN base accepted by RefitMLRBank")
	}
}
