package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/power"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// Env is the execution environment a strategy runs against: the measurement
// machine, the pristine machine used by oracles, the power model, and the
// configuration space.
type Env struct {
	// Machine executes phases and produces (possibly noisy) measurements.
	Machine *machine.Machine
	// Truth is the noiseless machine; only oracle strategies may consult
	// it.
	Truth *machine.Machine
	// Power converts activity into watts.
	Power *power.Model
	// Configs is the candidate configuration space (the paper's
	// {1, 2a, 2b, 3, 4}).
	Configs []topology.Placement
	// SampleConfig is the maximal-concurrency configuration used during
	// counter sampling.
	SampleConfig topology.Placement
}

// NewEnv builds an environment over the given machines and power model with
// the paper's configuration space; sampling follows pmu.CounterWidth and
// pmu.MaxSampleFraction. The machines must model the quad-core Xeon (or any
// topology hosting cores 0–3); Validate reports a descriptive error
// otherwise. For other machines use NewEnvWith.
func NewEnv(meas, truth *machine.Machine, pm *power.Model) *Env {
	return NewEnvWith(meas, truth, pm, topology.PaperConfigs())
}

// NewEnvWith builds an environment over an explicit configuration space
// (e.g. a heterogeneous topology's placement enumeration). By the
// enumeration convention the last placement is maximal concurrency and
// becomes the sampling configuration.
func NewEnvWith(meas, truth *machine.Machine, pm *power.Model, cfgs []topology.Placement) *Env {
	env := &Env{
		Machine: meas,
		Truth:   truth,
		Power:   pm,
		Configs: cfgs,
	}
	if len(cfgs) > 0 {
		env.SampleConfig = cfgs[len(cfgs)-1]
	}
	return env
}

// Validate reports configuration errors.
func (e *Env) Validate() error {
	switch {
	case e.Machine == nil:
		return errors.New("core: Env.Machine is nil")
	case e.Power == nil:
		return errors.New("core: Env.Power is nil")
	case len(e.Configs) == 0:
		return errors.New("core: Env.Configs is empty")
	case e.SampleConfig.Threads() == 0:
		return errors.New("core: Env.SampleConfig has no cores")
	}
	// The configuration space must fit the measurement machine: the paper
	// configs silently assumed the quad-core Xeon, which turned a
	// mismatched topology into an index panic deep in the solve.
	topo := e.Machine.Topo
	for _, cfg := range e.Configs {
		if err := topo.ValidatePlacement(cfg); err != nil {
			return fmt.Errorf("core: Env.Configs does not fit the machine: %w", err)
		}
	}
	if err := topo.ValidatePlacement(e.SampleConfig); err != nil {
		return fmt.Errorf("core: Env.SampleConfig does not fit the machine: %w", err)
	}
	return nil
}

// configByName finds a configuration in the environment's space.
func (e *Env) configByName(name string) (topology.Placement, bool) {
	for _, c := range e.Configs {
		if c.Name == name {
			return c, true
		}
	}
	return topology.Placement{}, false
}

// RunResult is the outcome of executing a benchmark under a strategy — the
// quantities Fig. 8 reports, plus diagnostics.
type RunResult struct {
	// Strategy is the strategy's display name.
	Strategy string
	// Benchmark is the workload name.
	Benchmark string
	// TimeSec, EnergyJ, AvgPowerW and ED2 are whole-run totals.
	TimeSec   float64
	EnergyJ   float64
	AvgPowerW float64
	ED2       float64
	// PhaseConfigs maps phase name → the configuration it settled on.
	PhaseConfigs map[string]string
	// SampleRounds is the number of sampled timesteps (prediction
	// strategies) or probe executions (search).
	SampleRounds int
	// Migrations counts placement changes between consecutive phase
	// executions; MigrationTimeSec is the cache-refill time they cost.
	Migrations       int
	MigrationTimeSec float64
}

// Strategy runs a benchmark to completion under some concurrency policy.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Run executes the benchmark and returns the accounted result.
	Run(b *workload.Benchmark, env *Env) (RunResult, error)
}

// phasePolicy decides, per phase, which placement each iteration uses, and
// observes the resulting measurement (so adaptive policies can learn).
type phasePolicy interface {
	place(iter int) topology.Placement
	observe(iter int, res machine.Result) error
	sampledRounds() int
	finalConfig() string
}

// execute drives the benchmark iteration-by-iteration under per-phase
// policies, accounting time, energy, and migration penalties. This is the
// shared engine beneath every strategy. Each execution is one
// Machine.RunPhase, which draws measurement noise per execution, in
// execution order; on a memoised machine (the exp suite's, whose noisy copies
// share their truth's memo) each (phase, placement) response is solved once.
func execute(name string, b *workload.Benchmark, env *Env, policies []phasePolicy) (RunResult, error) {
	if err := env.Validate(); err != nil {
		return RunResult{}, err
	}
	if err := b.Validate(); err != nil {
		return RunResult{}, err
	}
	if len(policies) != len(b.Phases) {
		return RunResult{}, fmt.Errorf("core: %d policies for %d phases", len(policies), len(b.Phases))
	}
	res := RunResult{
		Strategy:     name,
		Benchmark:    b.Name,
		PhaseConfigs: make(map[string]string, len(b.Phases)),
	}
	var acc power.Accumulator
	var prev topology.Placement
	havePrev := false
	for it := 0; it < b.Iterations; it++ {
		for pi := range b.Phases {
			p := &b.Phases[pi]
			pl := policies[pi].place(it)
			if havePrev {
				extraSec, extraBytes := env.Machine.MigrationPenalty(p, prev, pl)
				if extraSec > 0 {
					res.Migrations++
					res.MigrationTimeSec += extraSec
					acc.Add(extraSec, env.Power.Power(migrationActivity(env, pl, extraSec, extraBytes)))
				}
			}
			r := env.Machine.RunPhase(p, b.Idiosyncrasy, pl)
			acc.Add(r.TimeSec, env.Power.Power(r.Activity))
			if err := policies[pi].observe(it, r); err != nil {
				return RunResult{}, err
			}
			prev, havePrev = pl, true
		}
	}
	for pi := range b.Phases {
		res.PhaseConfigs[b.Phases[pi].Name] = policies[pi].finalConfig()
		res.SampleRounds += policies[pi].sampledRounds()
	}
	res.TimeSec = acc.TimeSec
	res.EnergyJ = acc.EnergyJ
	res.AvgPowerW = acc.AvgPower()
	res.ED2 = acc.ED2()
	return res, nil
}

// migrationActivity models the cache-refill interval after a placement
// switch: cores mostly stalled, the bus streaming refill traffic. This
// off-chip traffic is why the paper observes no net power saving from
// throttling.
func migrationActivity(env *Env, pl topology.Placement, extraSec, extraBytes float64) machine.Activity {
	busUtil := 0.0
	if extraSec > 0 {
		busUtil = math.Min(extraBytes/extraSec/env.Machine.Topo.BusBandwidth, 0.95)
	}
	return machine.Activity{
		TimeSec:          extraSec,
		ActiveCores:      pl.Threads(),
		TotalCores:       env.Machine.Topo.NumCores,
		AvgCoreIPC:       0.2,
		PeakIPC:          env.Machine.Params().PeakIssueIPC,
		AvgCoreUtil:      0.25,
		BusUtilization:   busUtil,
		BusBytes:         extraBytes,
		L2AccessesPerSec: 0,
	}
}

// staticPolicy pins a phase to one placement for the whole run.
type staticPolicy struct {
	pl topology.Placement
}

func (s *staticPolicy) place(int) topology.Placement      { return s.pl }
func (s *staticPolicy) observe(int, machine.Result) error { return nil }
func (s *staticPolicy) sampledRounds() int                { return 0 }
func (s *staticPolicy) finalConfig() string               { return s.pl.Name }

// Static runs every phase on a fixed configuration — with the full-machine
// configuration it is the paper's "4 Cores" baseline, the default of a
// performance-oriented developer.
type Static struct {
	// Config is the placement name within the environment's space.
	Config string
}

// Name implements Strategy.
func (s *Static) Name() string { return fmt.Sprintf("static-%s", s.Config) }

// Run implements Strategy.
func (s *Static) Run(b *workload.Benchmark, env *Env) (RunResult, error) {
	pl, ok := env.configByName(s.Config)
	if !ok {
		return RunResult{}, fmt.Errorf("core: unknown config %q", s.Config)
	}
	policies := make([]phasePolicy, len(b.Phases))
	for i := range policies {
		policies[i] = &staticPolicy{pl: pl}
	}
	return execute(s.Name(), b, env, policies)
}

// OracleGlobal runs the whole benchmark on the single configuration that
// minimises total (noiseless) execution time — the paper's "Global Optimal"
// comparison point, which requires information a real runtime cannot have.
type OracleGlobal struct{}

// Name implements Strategy.
func (OracleGlobal) Name() string { return "oracle-global" }

// Run implements Strategy.
func (OracleGlobal) Run(b *workload.Benchmark, env *Env) (RunResult, error) {
	if env.Truth == nil {
		return RunResult{}, errors.New("core: oracle strategy requires Env.Truth")
	}
	best, _, err := GlobalOptimal(b, env.Truth, env.Configs)
	if err != nil {
		return RunResult{}, err
	}
	policies := make([]phasePolicy, len(b.Phases))
	for i := range policies {
		policies[i] = &staticPolicy{pl: best}
	}
	res, err := execute(OracleGlobal{}.Name(), b, env, policies)
	return res, err
}

// OraclePhase runs each phase on its individually optimal configuration —
// the paper's "Phase Optimal" upper bound for phase-granularity adaptation.
type OraclePhase struct{}

// Name implements Strategy.
func (OraclePhase) Name() string { return "oracle-phase" }

// Run implements Strategy.
func (OraclePhase) Run(b *workload.Benchmark, env *Env) (RunResult, error) {
	if env.Truth == nil {
		return RunResult{}, errors.New("core: oracle strategy requires Env.Truth")
	}
	bests, err := PhaseOptimal(b, env.Truth, env.Configs)
	if err != nil {
		return RunResult{}, err
	}
	policies := make([]phasePolicy, len(b.Phases))
	for i := range policies {
		policies[i] = &staticPolicy{pl: bests[i]}
	}
	return execute(OraclePhase{}.Name(), b, env, policies)
}

// GlobalOptimal returns the configuration minimising the benchmark's total
// noiseless execution time, with the per-config total times for reporting.
// Each phase is evaluated across the whole configuration space in one
// RunPhaseSweep call; per-config totals accumulate in phase order, so the
// result is bit-identical to the per-config sequential loop it replaces.
func GlobalOptimal(b *workload.Benchmark, truth *machine.Machine, configs []topology.Placement) (topology.Placement, map[string]float64, error) {
	if len(configs) == 0 {
		return topology.Placement{}, nil, errors.New("core: empty config space")
	}
	totals := make([]float64, len(configs))
	dst := make([]machine.Result, len(configs))
	for pi := range b.Phases {
		truth.RunPhaseSweep(&b.Phases[pi], b.Idiosyncrasy, configs, dst)
		for ci := range configs {
			totals[ci] += dst[ci].TimeSec
		}
	}
	times := make(map[string]float64, len(configs))
	best := configs[0]
	bestT := math.Inf(1)
	for ci, cfg := range configs {
		t := totals[ci] * float64(b.Iterations)
		times[cfg.Name] = t
		if t < bestT {
			bestT, best = t, cfg
		}
	}
	return best, times, nil
}

// PhaseOptimal returns each phase's individually fastest configuration.
func PhaseOptimal(b *workload.Benchmark, truth *machine.Machine, configs []topology.Placement) ([]topology.Placement, error) {
	if len(configs) == 0 {
		return nil, errors.New("core: empty config space")
	}
	out := make([]topology.Placement, len(b.Phases))
	dst := make([]machine.Result, len(configs))
	for pi := range b.Phases {
		truth.RunPhaseSweep(&b.Phases[pi], b.Idiosyncrasy, configs, dst)
		best := configs[0]
		bestT := math.Inf(1)
		for ci, cfg := range configs {
			if t := dst[ci].TimeSec; t < bestT {
				bestT, best = t, cfg
			}
		}
		out[pi] = best
	}
	return out, nil
}

// RankConfigsByTime orders configuration names from fastest to slowest for
// one phase on the noiseless machine — used to score how often the
// predictor selects the true best configuration (Fig. 7).
func RankConfigsByTime(p *workload.PhaseProfile, idio float64, truth *machine.Machine, configs []topology.Placement) []string {
	dst := make([]machine.Result, len(configs))
	truth.RunPhaseSweep(p, idio, configs, dst)
	type ct struct {
		name string
		t    float64
	}
	list := make([]ct, 0, len(configs))
	for ci, cfg := range configs {
		list = append(list, ct{cfg.Name, dst[ci].TimeSec})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].t < list[j].t })
	out := make([]string, len(list))
	for i, c := range list {
		out[i] = c.name
	}
	return out
}
