package core

import (
	"fmt"
	"strings"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// Prediction is ACTOR's headline strategy: sample counters at maximal
// concurrency for the first few timesteps (rotating events through the
// pmu.CounterWidth counters within the pmu.MaxSampleFraction sampling
// budget), predict IPC on every alternative configuration with the trained
// models, and lock each phase to the configuration Decide picks: the
// highest IPC, ties to the lowest name.
type Prediction struct {
	// Bank supplies predictors per feature-set size; the strategy picks
	// the richest one fitting the sampling budget (the paper's reduced
	// event sets for FT, IS and MG).
	Bank *Bank
}

// Name implements Strategy.
func (p *Prediction) Name() string { return "prediction" }

// Run implements Strategy.
func (p *Prediction) Run(b *workload.Benchmark, env *Env) (RunResult, error) {
	if p.Bank == nil {
		return RunResult{}, fmt.Errorf("core: prediction strategy has no predictor bank")
	}
	budget := pmu.SamplingBudget(b.Iterations, pmu.MaxSampleFraction)
	pred := p.Bank.Select(budget)

	policies := make([]phasePolicy, len(b.Phases))
	for i := range policies {
		pol, err := newPredictionPolicy(env, pred, budget)
		if err != nil {
			return RunResult{}, err
		}
		policies[i] = pol
	}
	return execute(p.Name(), b, env, policies)
}

// predictionPolicy is the per-phase state machine: Sampling (run at the
// sampling configuration while rotating counters) → Decided (locked to the
// selected configuration).
type predictionPolicy struct {
	env     *Env
	pred    *Predictor
	sampler *pmu.Sampler
	rounds  int
	decided bool
	choice  topology.Placement
}

func newPredictionPolicy(env *Env, pred *Predictor, budget int) (*predictionPolicy, error) {
	plan, err := pmu.PlanRotation(pred.Events(), budget)
	if err != nil {
		return nil, err
	}
	return &predictionPolicy{
		env:     env,
		pred:    pred,
		sampler: pmu.NewSampler(pmu.NewCounterFile(), plan),
	}, nil
}

func (pp *predictionPolicy) place(int) topology.Placement {
	if pp.decided {
		return pp.choice
	}
	return pp.env.SampleConfig
}

func (pp *predictionPolicy) observe(_ int, res machine.Result) error {
	if pp.decided {
		return nil
	}
	if err := pp.sampler.Observe(res.Counts); err != nil {
		return err
	}
	pp.rounds++
	if !pp.sampler.Done() {
		return nil
	}
	return pp.decide()
}

// decide predicts every target configuration's IPC from the sampled rates
// and locks in the configuration Decide picks.
func (pp *predictionPolicy) decide() error {
	rates := pp.sampler.Rates()
	best := Decide(pp.pred, pp.pred.PredictInto(nil, &rates), pp.env.SampleConfig.Name, &rates)
	pl, ok := pp.env.configByName(best)
	if !ok {
		return fmt.Errorf("core: predictor proposed unknown config %q", best)
	}
	pp.choice = pl
	pp.decided = true
	return nil
}

// CompareChoices orders two candidate configurations under ACTOR's decision
// rule: negative when configuration a at IPC x ranks before configuration b
// at IPC y — higher IPC first, ties to the lower name — positive when b
// ranks first, zero when they tie outright. The served ranking sorts with
// it, so its top entry is the configuration Decide picks.
func CompareChoices(a string, x float64, b string, y float64) int {
	switch {
	case x > y:
		return -1
	case x < y:
		return 1
	}
	return strings.Compare(a, b)
}

// Decide is ACTOR's decision step, the paper's eq. (2) put to use: of p's
// target configurations at their predicted IPCs (vals, in TargetNames
// order) and — when rates carry pmu.Instructions — the sampling
// configuration sample at its observed IPC, it returns the one
// CompareChoices ranks first.
func Decide(p *Predictor, vals []float64, sample string, rates *pmu.Rates) string {
	best, bestIPC, found := "", 0.0, false
	if obs, ok := rates.Get(pmu.Instructions); ok {
		best, bestIPC, found = sample, obs, true
	}
	for i, name := range p.names {
		if !found || CompareChoices(name, vals[i], best, bestIPC) < 0 {
			best, bestIPC, found = name, vals[i], true
		}
	}
	return best
}

func (pp *predictionPolicy) sampledRounds() int { return pp.rounds }

func (pp *predictionPolicy) finalConfig() string {
	if pp.decided {
		return pp.choice.Name
	}
	return pp.env.SampleConfig.Name
}
