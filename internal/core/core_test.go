package core

import (
	"math"
	"testing"

	"github.com/greenhpc/actor/internal/ann"
	"github.com/greenhpc/actor/internal/dataset"
	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/mlr"
	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/npb"
	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/power"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

func newEnv(t *testing.T) *Env {
	t.Helper()
	truth, err := machine.New(topology.QuadCoreXeon())
	if err != nil {
		t.Fatal(err)
	}
	noisy := truth.WithNoise(noise.New(3), 0.01, 0.05)
	return NewEnv(noisy, truth, power.Default())
}

func smallBench(t *testing.T) *workload.Benchmark {
	t.Helper()
	b, err := npb.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	b.Iterations = 20 // keep strategy tests fast
	return b
}

func TestEnvValidate(t *testing.T) {
	env := newEnv(t)
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *env
	bad.Configs = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty config space accepted")
	}
}

func TestStaticStrategy(t *testing.T) {
	env := newEnv(t)
	b := smallBench(t)
	res, err := (&Static{Config: "4"}).Run(b, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeSec <= 0 || res.EnergyJ <= 0 || res.ED2 <= 0 {
		t.Errorf("non-positive accounting: %+v", res)
	}
	if res.Migrations != 0 {
		t.Errorf("static run migrated %d times", res.Migrations)
	}
	for phase, cfg := range res.PhaseConfigs {
		if cfg != "4" {
			t.Errorf("phase %s on %s, want 4", phase, cfg)
		}
	}
	if _, err := (&Static{Config: "9z"}).Run(b, env); err == nil {
		t.Error("unknown config accepted")
	}
	// ED2 consistency: E·T².
	if got, want := res.ED2, res.EnergyJ*res.TimeSec*res.TimeSec; math.Abs(got-want) > 1e-6*want {
		t.Errorf("ED2 = %g, want %g", got, want)
	}
}

// TestStaticRunHasNoSamplingEvents checks execute's accounting for a policy
// that never samples: no sampled rounds, one configuration for every phase,
// and a run time that is exactly its executions (no migrations to charge).
func TestStaticRunHasNoSamplingEvents(t *testing.T) {
	env := newEnv(t)
	b := smallBench(t)
	res, err := (&Static{Config: "2b"}).Run(b, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleRounds != 0 {
		t.Errorf("static run sampled %d rounds", res.SampleRounds)
	}
	if res.Migrations != 0 || res.MigrationTimeSec != 0 {
		t.Errorf("static run migrated: %d times, %g s", res.Migrations, res.MigrationTimeSec)
	}
	if len(res.PhaseConfigs) != len(b.Phases) {
		t.Errorf("%d phase configs for %d phases", len(res.PhaseConfigs), len(b.Phases))
	}
	for phase, cfg := range res.PhaseConfigs {
		if cfg != "2b" {
			t.Errorf("phase %s on %s, want 2b", phase, cfg)
		}
	}
}

func TestOracleRelations(t *testing.T) {
	env := newEnv(t)
	// Use the pristine machine for measurement too, so oracle relations
	// hold exactly (no run-to-run noise).
	env.Machine = env.Truth
	b := smallBench(t)

	static4, err := (&Static{Config: "4"}).Run(b, env)
	if err != nil {
		t.Fatal(err)
	}
	global, err := (OracleGlobal{}).Run(b, env)
	if err != nil {
		t.Fatal(err)
	}
	phase, err := (OraclePhase{}).Run(b, env)
	if err != nil {
		t.Fatal(err)
	}
	if global.TimeSec > static4.TimeSec*1.0001 {
		t.Errorf("global optimal (%.3fs) slower than static-4 (%.3fs)", global.TimeSec, static4.TimeSec)
	}
	// Phase optimal beats global optimal up to migration costs.
	if phase.TimeSec > global.TimeSec*1.02 {
		t.Errorf("phase optimal (%.3fs) clearly slower than global optimal (%.3fs)", phase.TimeSec, global.TimeSec)
	}
}

func TestGlobalAndPhaseOptimal(t *testing.T) {
	env := newEnv(t)
	b := smallBench(t)
	best, times, err := GlobalOptimal(b, env.Truth, env.Configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != len(env.Configs) {
		t.Errorf("times for %d configs, want %d", len(times), len(env.Configs))
	}
	for _, cfg := range env.Configs {
		if times[best.Name] > times[cfg.Name] {
			t.Errorf("global optimal %s (%.3f) beaten by %s (%.3f)",
				best.Name, times[best.Name], cfg.Name, times[cfg.Name])
		}
	}
	bests, err := PhaseOptimal(b, env.Truth, env.Configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(bests) != len(b.Phases) {
		t.Fatalf("per-phase bests = %d, want %d", len(bests), len(b.Phases))
	}
	for pi := range b.Phases {
		tBest := env.Truth.RunPhase(&b.Phases[pi], b.Idiosyncrasy, bests[pi]).TimeSec
		for _, cfg := range env.Configs {
			if tBest > env.Truth.RunPhase(&b.Phases[pi], b.Idiosyncrasy, cfg).TimeSec*1.0001 {
				t.Errorf("phase %d: %s not optimal", pi, bests[pi].Name)
			}
		}
	}
}

func TestRankConfigsByTime(t *testing.T) {
	env := newEnv(t)
	b := smallBench(t)
	ranking := RankConfigsByTime(&b.Phases[0], b.Idiosyncrasy, env.Truth, env.Configs)
	if len(ranking) != len(env.Configs) {
		t.Fatalf("ranking has %d entries", len(ranking))
	}
	prev := -1.0
	for _, name := range ranking {
		cfg, ok := topology.ConfigByName(name)
		if !ok {
			t.Fatalf("unknown config %q in ranking", name)
		}
		tt := env.Truth.RunPhase(&b.Phases[0], b.Idiosyncrasy, cfg).TimeSec
		if tt < prev {
			t.Error("ranking not sorted by time")
		}
		prev = tt
	}
}

func TestSearchStrategy(t *testing.T) {
	env := newEnv(t)
	b := smallBench(t)
	res, err := (&Search{}).Run(b, env)
	if err != nil {
		t.Fatal(err)
	}
	// The search probes every config once per phase.
	if want := len(b.Phases) * len(env.Configs); res.SampleRounds < want {
		t.Errorf("search probed %d times, want ≥ %d", res.SampleRounds, want)
	}
	for phase, cfg := range res.PhaseConfigs {
		if _, ok := topology.ConfigByName(cfg); !ok {
			t.Errorf("phase %s locked to unknown config %q", phase, cfg)
		}
	}
}

// trainSmallBank builds a fast ANN bank from two benchmarks.
func trainSmallBank(t *testing.T, env *Env) *Bank {
	t.Helper()
	collector := dataset.NewCollector(env.Machine, env.Truth)
	collector.Repetitions = 2
	var samples []dataset.PhaseSample
	for _, name := range []string{"BT", "MG", "LU"} {
		b, _ := npb.ByName(name)
		ss, err := collector.CollectBenchmark(b)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, ss...)
	}
	cfg := ann.DefaultConfig()
	cfg.MaxEpochs = 60
	cfg.Patience = 10
	bank, err := TrainANNBank(samples, []int{12, 4}, []string{"1", "2a", "2b", "3"}, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return bank
}

func TestBankSelect(t *testing.T) {
	env := newEnv(t)
	bank := trainSmallBank(t, env)
	if got := bank.Select(6); len(got.Events()) != 12 {
		t.Errorf("budget 6 selected %d events, want 12", len(got.Events()))
	}
	if got := bank.Select(2); len(got.Events()) != 4 {
		t.Errorf("budget 2 selected %d events, want 4", len(got.Events()))
	}
	// Nothing fits → smallest predictor.
	if got := bank.Select(1); len(got.Events()) != 4 {
		t.Errorf("budget 1 selected %d events, want smallest (4)", len(got.Events()))
	}
}

func TestPredictionStrategyRuns(t *testing.T) {
	env := newEnv(t)
	bank := trainSmallBank(t, env)
	b := smallBench(t) // CG was not in the training set: leave-one-out
	res, err := (&Prediction{Bank: bank}).Run(b, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleRounds == 0 {
		t.Error("prediction strategy never sampled")
	}
	budget := pmu.SamplingBudget(b.Iterations, pmu.MaxSampleFraction)
	if res.SampleRounds > budget*len(b.Phases) {
		t.Errorf("sampled %d rounds, budget %d per phase", res.SampleRounds, budget)
	}
	for phase, cfg := range res.PhaseConfigs {
		if _, ok := topology.ConfigByName(cfg); !ok {
			t.Errorf("phase %s locked to unknown config %q", phase, cfg)
		}
	}
	// Against an easy baseline: adaptation must not be catastrophically
	// worse than static-4 (sampling overhead is bounded by the budget).
	static4, err := (&Static{Config: "4"}).Run(b, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeSec > static4.TimeSec*1.5 {
		t.Errorf("prediction run %.3fs vs static-4 %.3fs: overhead out of control",
			res.TimeSec, static4.TimeSec)
	}
}

func TestPredictionRequiresBank(t *testing.T) {
	env := newEnv(t)
	b := smallBench(t)
	if _, err := (&Prediction{}).Run(b, env); err == nil {
		t.Error("prediction without bank accepted")
	}
}

func TestPredictorValidation(t *testing.T) {
	if _, err := NewPredictor(nil, nil, nil); err == nil {
		t.Error("empty predictor accepted")
	}
	m, err := mlr.NewModel([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPredictor(nil, []string{"1", "2"}, []Model{m}); err == nil {
		t.Error("predictor with a target but no model accepted")
	}
	if _, err := NewPredictor(nil, []string{"1", "1"}, []Model{m, m}); err == nil {
		t.Error("predictor with two models for one target accepted")
	}
	if _, err := NewPredictor([]pmu.Event{pmu.L2Misses}, []string{"1"}, []Model{m}); err == nil {
		t.Error("model with the wrong input dimension accepted")
	}
	if _, err := NewBank(); err == nil {
		t.Error("empty bank accepted")
	}
}

// TestDecideTieBreak holds the decision rule's tie order: two targets whose
// models are identical predict the same IPC, and the lower name must win on
// every call — not whichever one a map visit reached first.
func TestDecideTieBreak(t *testing.T) {
	m, err := mlr.NewModel([]float64{1.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	other, err := mlr.NewModel([]float64{1.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(nil, []string{"3", "2b"}, []Model{m, other})
	if err != nil {
		t.Fatal(err)
	}
	ipc := func(v float64) *pmu.Rates {
		var r pmu.Rates
		r.Set(pmu.Instructions, v)
		return &r
	}
	rates := ipc(0.5) // the sampled IPC loses
	for i := 0; i < 1000; i++ {
		if got := Decide(p, p.PredictInto(nil, rates), "4", rates); got != "2b" {
			t.Fatalf("call %d: Decide picked %q of two tied targets, want the lower name %q", i, got, "2b")
		}
	}
	// An observed sampling configuration tied with the best prediction
	// loses to a lower name and beats a higher one.
	for sample, want := range map[string]string{"4": "2b", "1": "1"} {
		tied := ipc(1.5)
		if got := Decide(p, p.PredictInto(nil, tied), sample, tied); got != want {
			t.Errorf("sample %q tied at the top: Decide picked %q, want %q", sample, got, want)
		}
	}
	// Without an observed IPC the sampling configuration does not compete.
	if got := Decide(p, p.PredictInto(nil, &pmu.Rates{}), "1", &pmu.Rates{}); got != "2b" {
		t.Errorf("no observed IPC: Decide picked %q, want %q", got, "2b")
	}
}

func TestMigrationAccounting(t *testing.T) {
	env := newEnv(t)
	env.Machine = env.Truth
	b := smallBench(t)
	// Force alternating placements by phase: odd phases on 2b, even on 4.
	bests, _ := PhaseOptimal(b, env.Truth, env.Configs)
	differ := false
	for i := 1; i < len(bests); i++ {
		if bests[i].Name != bests[i-1].Name {
			differ = true
		}
	}
	if !differ {
		t.Skip("phase optima coincide; no migration to observe")
	}
	res, err := (OraclePhase{}).Run(b, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Error("no migrations recorded despite differing phase placements")
	}
	if res.MigrationTimeSec <= 0 {
		t.Error("migration time not accounted")
	}
}
