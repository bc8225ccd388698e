// Package dvfs extends ACTOR's concurrency throttling with dynamic voltage
// and frequency scaling, the complementary knob explored by the related
// work the paper compares against (Li & Martínez, HPCA'06). A joint
// configuration is a (thread placement, frequency level) pair; the package
// provides the joint configuration space, oracle searches under several
// objectives, and whole-benchmark evaluation so the ablation benchmarks can
// quantify how much DVFS adds on top of concurrency throttling.
package dvfs

import (
	"errors"
	"fmt"
	"math"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/power"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// DefaultLevels is a Core-2-era DVFS ladder as clock-scale factors of the
// nominal 2.4 GHz: 2.4, 2.13, 1.87 and 1.6 GHz.
func DefaultLevels() []float64 {
	return []float64{1.0, 8.0 / 9, 7.0 / 9, 2.0 / 3}
}

// Config is a joint operating point.
type Config struct {
	// Placement is the thread-to-core binding.
	Placement topology.Placement
	// FreqScale is the clock scale in (0, 1].
	FreqScale float64
}

// Name renders "2b@0.78" style labels.
func (c Config) Name() string {
	return fmt.Sprintf("%s@%.2f", c.Placement.Name, c.FreqScale)
}

// Space enumerates the joint configuration space: every placement at every
// frequency level.
func Space(placements []topology.Placement, levels []float64) []Config {
	out := make([]Config, 0, len(placements)*len(levels))
	for _, pl := range placements {
		for _, f := range levels {
			out = append(out, Config{Placement: pl, FreqScale: f})
		}
	}
	return out
}

// Objective scores a phase execution; lower is better.
type Objective func(timeSec, energyJ float64) float64

// MinED2 optimises the paper's headline metric E·T².
var MinED2 Objective = func(t, e float64) float64 { return e * t * t }

// Evaluator runs phases at joint operating points. With a noiseless Base
// (every in-repo caller: oracles evaluate ground truth) it is safe for
// concurrent use — the exp drivers fan benchmarks out across one shared
// evaluator. It holds no state of its own: each evaluation runs on
// Base.WithFrequency, a struct copy that shares the base machine's
// phase-response memo. A noisy Base would not be safe: its frequency-scaled
// copies would share one noise source, racing under concurrent use and
// consuming draws in level-grouped rather than space order.
type Evaluator struct {
	// Base is the nominal-frequency machine (oracle: noiseless).
	Base *machine.Machine
	// Power is the power model.
	Power *power.Model
}

// NewEvaluator builds an evaluator over the machine and power model.
func NewEvaluator(base *machine.Machine, pm *power.Model) (*Evaluator, error) {
	if base == nil || pm == nil {
		return nil, errors.New("dvfs: nil machine or power model")
	}
	return &Evaluator{Base: base, Power: pm}, nil
}

// RunPhase executes one phase at a joint operating point, returning time
// and energy.
func (ev *Evaluator) RunPhase(p *workload.PhaseProfile, idio float64, cfg Config) (timeSec, energyJ float64) {
	res := ev.Base.WithFrequency(cfg.FreqScale).RunPhase(p, idio, cfg.Placement)
	return res.TimeSec, ev.Power.Energy(res.Activity)
}

// BestPerPhase returns, for every phase of the benchmark, the joint
// configuration minimising the objective.
//
// The space is regrouped by frequency level so each phase is evaluated with
// one machine.RunPhaseSweep per level across that level's placements; the
// candidates are then scored in the space's original order, so ties resolve
// exactly as the per-configuration loop this replaces resolved them.
func (ev *Evaluator) BestPerPhase(b *workload.Benchmark, space []Config, obj Objective) ([]Config, error) {
	if len(space) == 0 {
		return nil, errors.New("dvfs: empty configuration space")
	}
	// Group the space indices by frequency level (first-seen order).
	type levelGroup struct {
		scale      float64
		spaceIdx   []int
		placements []topology.Placement
	}
	var groups []levelGroup
	byScale := make(map[float64]int)
	for si, cfg := range space {
		gi, ok := byScale[cfg.FreqScale]
		if !ok {
			gi = len(groups)
			byScale[cfg.FreqScale] = gi
			groups = append(groups, levelGroup{scale: cfg.FreqScale})
		}
		groups[gi].spaceIdx = append(groups[gi].spaceIdx, si)
		groups[gi].placements = append(groups[gi].placements, cfg.Placement)
	}
	maxGroup := 0
	for _, g := range groups {
		if len(g.placements) > maxGroup {
			maxGroup = len(g.placements)
		}
	}

	type te struct{ t, e float64 }
	scores := make([]te, len(space))
	dst := make([]machine.Result, maxGroup)
	out := make([]Config, len(b.Phases))
	for pi := range b.Phases {
		p := &b.Phases[pi]
		for _, g := range groups {
			d := dst[:len(g.placements)]
			ev.Base.WithFrequency(g.scale).RunPhaseSweep(p, b.Idiosyncrasy, g.placements, d)
			for k, si := range g.spaceIdx {
				scores[si] = te{d[k].TimeSec, ev.Power.Energy(d[k].Activity)}
			}
		}
		best := space[0]
		bestScore := math.Inf(1)
		for si, cfg := range space {
			if s := obj(scores[si].t, scores[si].e); s < bestScore {
				bestScore, best = s, cfg
			}
		}
		if math.IsInf(bestScore, 1) {
			return nil, fmt.Errorf("dvfs: no feasible configuration for phase %q", b.Phases[pi].Name)
		}
		out[pi] = best
	}
	return out, nil
}

// RunResult is a whole-benchmark outcome at fixed per-phase configurations.
type RunResult struct {
	TimeSec, EnergyJ, AvgPowerW, ED2 float64
	// PhaseConfigs records the operating point per phase name.
	PhaseConfigs map[string]string
}

// RunBenchmark executes the benchmark with the given per-phase joint
// configurations (len must equal the phase count).
func (ev *Evaluator) RunBenchmark(b *workload.Benchmark, cfgs []Config) (RunResult, error) {
	if len(cfgs) != len(b.Phases) {
		return RunResult{}, fmt.Errorf("dvfs: %d configs for %d phases", len(cfgs), len(b.Phases))
	}
	var acc power.Accumulator
	res := RunResult{PhaseConfigs: make(map[string]string, len(b.Phases))}
	for pi := range b.Phases {
		t, e := ev.RunPhase(&b.Phases[pi], b.Idiosyncrasy, cfgs[pi])
		acc.Add(t*float64(b.Iterations), e/t)
		res.PhaseConfigs[b.Phases[pi].Name] = cfgs[pi].Name()
	}
	res.TimeSec = acc.TimeSec
	res.EnergyJ = acc.EnergyJ
	res.AvgPowerW = acc.AvgPower()
	res.ED2 = acc.ED2()
	return res, nil
}

// Uniform returns a per-phase slice repeating one configuration.
func Uniform(b *workload.Benchmark, cfg Config) []Config {
	out := make([]Config, len(b.Phases))
	for i := range out {
		out[i] = cfg
	}
	return out
}

// Strategies compared in the DVFS study.
type Strategy int

const (
	// AllCoresNominal is the 4-cores-at-full-clock default.
	AllCoresNominal Strategy = iota
	// ConcurrencyOnly throttles thread count/placement at nominal clock
	// (the paper's ACTOR, with oracle decisions).
	ConcurrencyOnly
	// DVFSOnly keeps all cores but picks each phase's best frequency.
	DVFSOnly
	// Joint picks each phase's best (placement, frequency) pair.
	Joint
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case AllCoresNominal:
		return "all-cores@nominal"
	case ConcurrencyOnly:
		return "concurrency-only"
	case DVFSOnly:
		return "dvfs-only"
	case Joint:
		return "joint"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Study runs the four strategies on a benchmark under the objective,
// returning results keyed by strategy.
func (ev *Evaluator) Study(b *workload.Benchmark, placements []topology.Placement, levels []float64, obj Objective) (map[Strategy]RunResult, error) {
	if len(placements) == 0 || len(levels) == 0 {
		return nil, errors.New("dvfs: empty placements or levels")
	}
	full := placements[len(placements)-1] // convention: last = all cores
	nominal := levels[0]                  // convention: first = 1.0

	out := make(map[Strategy]RunResult, 4)

	base, err := ev.RunBenchmark(b, Uniform(b, Config{Placement: full, FreqScale: nominal}))
	if err != nil {
		return nil, err
	}
	out[AllCoresNominal] = base

	concSpace := Space(placements, []float64{nominal})
	cfgs, err := ev.BestPerPhase(b, concSpace, obj)
	if err != nil {
		return nil, err
	}
	if out[ConcurrencyOnly], err = ev.RunBenchmark(b, cfgs); err != nil {
		return nil, err
	}

	dvfsSpace := Space([]topology.Placement{full}, levels)
	cfgs, err = ev.BestPerPhase(b, dvfsSpace, obj)
	if err != nil {
		return nil, err
	}
	if out[DVFSOnly], err = ev.RunBenchmark(b, cfgs); err != nil {
		return nil, err
	}

	jointSpace := Space(placements, levels)
	cfgs, err = ev.BestPerPhase(b, jointSpace, obj)
	if err != nil {
		return nil, err
	}
	if out[Joint], err = ev.RunBenchmark(b, cfgs); err != nil {
		return nil, err
	}
	return out, nil
}
