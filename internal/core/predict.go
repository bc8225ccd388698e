package core

import (
	"fmt"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// Prediction is ACTOR's headline strategy: sample counters at maximal
// concurrency for the first few timesteps (rotating event pairs through the
// two-counter PMU within the 20% sampling budget), predict IPC on every
// alternative configuration with the trained models, and lock each phase to
// the configuration with the highest predicted IPC.
type Prediction struct {
	// Bank supplies predictors per feature-set size; the strategy picks
	// the richest one fitting the sampling budget (the paper's reduced
	// event sets for FT, IS and MG).
	Bank *Bank
	// DisplayName overrides the default name in reports (useful when
	// comparing ANN and MLR banks).
	DisplayName string
}

// Name implements Strategy.
func (p *Prediction) Name() string {
	if p.DisplayName != "" {
		return p.DisplayName
	}
	return "prediction"
}

// Run implements Strategy.
func (p *Prediction) Run(b *workload.Benchmark, env *Env) (RunResult, error) {
	if p.Bank == nil {
		return RunResult{}, fmt.Errorf("core: prediction strategy has no predictor bank")
	}
	budget := pmu.SamplingBudget(b.Iterations, env.MaxSampleFraction)
	pred := p.Bank.Select(budget, env.CounterWidth)

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
	pred    Predictor
	sampler *pmu.Sampler
	rounds  int
	decided bool
	choice  topology.Placement
}

func newPredictionPolicy(env *Env, pred Predictor, budget int) (*predictionPolicy, error) {
	file, err := pmu.NewCounterFile(env.CounterWidth)
	if err != nil {
		return nil, err
	}
	plan, err := pmu.PlanRotation(pred.Events(), env.CounterWidth, budget)
	if err != nil {
		return nil, err
	}
	return &predictionPolicy{
		env:     env,
		pred:    pred,
		sampler: pmu.NewSampler(file, plan),
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

// decide ranks the sampling configuration's observed IPC against the
// predicted IPC of every other configuration and locks in the winner.
func (pp *predictionPolicy) decide() error {
	rates := pp.sampler.Rates()
	preds, err := pp.pred.PredictIPC(rates)
	if err != nil {
		return err
	}
	bestName := pp.env.SampleConfig.Name
	bestIPC := rates[pmu.Instructions] // observed IPC at the sample config
	for name, ipc := range preds {
		if name == pp.env.SampleConfig.Name {
			continue
		}
		if ipc > bestIPC {
			bestIPC, bestName = ipc, name
		}
	}
	pl, ok := pp.env.configByName(bestName)
	if !ok {
		return fmt.Errorf("core: predictor proposed unknown config %q", bestName)
	}
	pp.choice = pl
	pp.decided = true
	return nil
}

func (pp *predictionPolicy) sampledRounds() int { return pp.rounds }

func (pp *predictionPolicy) finalConfig() string {
	if pp.decided {
		return pp.choice.Name
	}
	return pp.env.SampleConfig.Name
}
