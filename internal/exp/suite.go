// Package exp contains one driver per figure of the paper's evaluation:
//
//	Fig. 1 — execution time per benchmark × configuration
//	Fig. 2 — per-phase aggregate IPC of SP across configurations
//	Fig. 3 — power and energy per benchmark × configuration (+ geomeans)
//	Fig. 6 — CDF of leave-one-out IPC prediction error
//	Fig. 7 — oracle rank of the configuration ACTOR selects per phase
//	Fig. 8 — normalised time/power/energy/ED² of the adaptation strategies
//
// Each driver returns a structured result with a Render method producing
// the same rows/series the paper reports; cmd/actorsim and the root
// bench_test.go wrap them.
package exp

import (
	"fmt"

	"github.com/greenhpc/actor/internal/ann"
	"github.com/greenhpc/actor/internal/dataset"
	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/npb"
	"github.com/greenhpc/actor/internal/power"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// Options tunes experiment fidelity (training cost vs accuracy). The
// measurement noise levels are the machine model's (see machine.WithNoise)
// and the mini-batch size is the trainer's.
type Options struct {
	// Seed drives every stochastic component (measurement noise, fold
	// shuffles, weight initialisation).
	Seed int64
	// Topology, when non-nil, replaces the paper's quad-core Xeon with an
	// arbitrary (possibly heterogeneous) machine; the configuration space
	// becomes the topology's canonical placement enumeration (balanced
	// spreads above 32 cores — see topology.BalancedPlacements) with
	// the all-cores placement as the sampling configuration. Because the
	// prediction pipeline trains one model per non-sampling configuration
	// and labels IPC at every configuration, the suite thins large spaces
	// to suiteMaxConfigs evenly spaced candidates (ends kept) — a
	// 128-core big/little part would otherwise mean thousands of ANN
	// targets and an unrunnable `accuracy` subcommand. Studies that want
	// the full space (HeteroScaling, FutureScaling) enumerate it
	// themselves. Nil keeps the paper platform and its {1, 2a, 2b, 3, 4}
	// space bit-for-bit.
	Topology *topology.Topology
	// Repetitions is the number of noisy sampling passes per phase when
	// building training data.
	Repetitions int
	// Folds is the cross-validation ensemble size (10 in the paper).
	Folds int
	// ANN is the member-network training configuration.
	ANN ann.Config
}

// DefaultOptions mirrors the paper: 10-fold ensembles and six sampling
// repetitions per phase. Training runs warm-started (one base model per
// ensemble with bounded per-fold fine-tuning) on the trainer's mini-batch
// GEMM passes — what made leave-one-out training the pipeline's fast path;
// see ann.Config and PERFORMANCE.md.
func DefaultOptions() Options {
	cfg := ann.DefaultConfig()
	cfg.WarmStartEpochs = 60
	return Options{
		Seed:        42,
		Repetitions: 6,
		Folds:       10,
		ANN:         cfg,
	}
}

// FastOptions trades a little fidelity for speed; used by the test suite so
// the full pipeline stays runnable in seconds. Like DefaultOptions it
// enables warm-start training.
func FastOptions() Options {
	cfg := ann.DefaultConfig()
	cfg.MaxEpochs = 150
	cfg.Patience = 12
	cfg.WarmStartEpochs = 30
	return Options{
		Seed:        42,
		Repetitions: 3,
		Folds:       5,
		ANN:         cfg,
	}
}

// Suite bundles the experimental platform: the quad-core Xeon model in
// noiseless (oracle) and noisy (measurement) forms, the power model, the
// configuration space and the NPB workloads.
//
// Both machines carry a shared phase-response memo (machine.WithMemo): the
// deterministic part of every (phase, placement, frequency) execution is
// computed once and reused by oracles, figure drivers and strategy replays
// alike.
type Suite struct {
	Opts    Options
	Truth   *machine.Machine
	Noisy   *machine.Machine
	Power   *power.Model
	Configs []topology.Placement
	Benches []*workload.Benchmark

	// noiseBase is the root of all per-task noise streams the parallel
	// evaluation engine forks (see internal/parallel's determinism
	// contract).
	noiseBase *noise.Source
}

// NewSuite constructs the platform used by every experiment.
func NewSuite(opts Options) (*Suite, error) {
	if err := npb.Validate(); err != nil {
		return nil, err
	}
	topo := opts.Topology
	var cfgs []topology.Placement
	if topo == nil {
		topo = topology.QuadCoreXeon()
		cfgs = topology.PaperConfigs()
	} else {
		if err := topo.Validate(); err != nil {
			return nil, err
		}
		// Full multiset enumeration up to 32 cores (the FutureScaling
		// regime); balanced spreads beyond, where the multiset space grows
		// combinatorially. Either way the trained space is capped (see
		// Options.Topology).
		if topo.NumCores <= 32 {
			cfgs = topology.EnumeratePlacements(topo)
		} else {
			cfgs = topology.BalancedPlacements(topo)
		}
		cfgs = thinPlacements(cfgs, suiteMaxConfigs)
	}
	truth, err := machine.New(topo)
	if err != nil {
		return nil, err
	}
	truth = truth.WithMemo()
	src := noise.New(opts.Seed)
	noisy := truth.WithNoise(src.Fork("machine"))
	return &Suite{
		Opts:      opts,
		Truth:     truth,
		Noisy:     noisy,
		Power:     power.Default(),
		Configs:   cfgs,
		Benches:   npb.All(),
		noiseBase: src,
	}, nil
}

// paperConfigSpace reports whether a configuration-name list is the
// paper's quad-core space, gating the paper-comparison render lines. The
// tell is "2a"/"2b": enumerated placement names are purely numeric
// patterns, so a bare "4" on a custom topology (a 4-thread placement on a
// single-group machine, say) must not trigger paper comparisons.
func paperConfigSpace(names []string) bool {
	has := func(want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	return has("2a") && has("2b") && has("4")
}

// suiteMaxConfigs bounds the configuration space a suite trains and
// evaluates over on custom topologies; see Options.Topology.
const suiteMaxConfigs = 24

// thinPlacements keeps at most max placements, evenly spaced over the
// (thread-count-ordered) candidate list with both ends retained, so the
// single-thread and all-cores placements always survive.
func thinPlacements(cfgs []topology.Placement, max int) []topology.Placement {
	if len(cfgs) <= max {
		return cfgs
	}
	out := make([]topology.Placement, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, cfgs[i*(len(cfgs)-1)/(max-1)])
	}
	return out
}

// SampleConfig returns the maximal-concurrency configuration counters are
// sampled at: the last of the configuration space by the enumeration
// convention (config "4" on the paper platform).
func (s *Suite) SampleConfig() topology.Placement {
	return s.Configs[len(s.Configs)-1]
}

// Targets returns the configuration names the predictors learn: every
// configuration except the sampling one, whose IPC is observed directly.
// On the paper platform this is 1, 2a, 2b and 3.
func (s *Suite) Targets() []string {
	out := make([]string, 0, len(s.Configs)-1)
	for _, c := range s.Configs[:len(s.Configs)-1] {
		out = append(out, c.Name)
	}
	return out
}

// Bench returns a benchmark by name.
func (s *Suite) Bench(name string) (*workload.Benchmark, error) {
	for _, b := range s.Benches {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("exp: unknown benchmark %q", name)
}

// ConfigNames returns the configuration labels in canonical order.
func (s *Suite) ConfigNames() []string {
	out := make([]string, len(s.Configs))
	for i, c := range s.Configs {
		out[i] = c.Name
	}
	return out
}

// newCollector returns a sample collector wired to the suite's machines and
// configuration space (identical to the paper defaults when
// Options.Topology is unset).
func (s *Suite) newCollector() *dataset.Collector {
	c := dataset.NewCollector(s.Noisy, s.Truth)
	c.Configs = s.Configs
	c.SampleConfig = s.SampleConfig()
	return c
}

// wholeRun is one benchmark's whole-run totals under one configuration.
type wholeRun struct {
	timeSec, avgPower, energyJ float64
}

// runWholeAcrossConfigs executes every phase of b once per iteration on
// machine m under each configuration, returning one wholeRun per config.
// Each phase is evaluated across all configurations in one RunPhaseSweep
// call; per-config accumulators consume phase results in phase order, so
// every total is bit-identical to the per-config sequential loop this
// replaces.
func (s *Suite) runWholeAcrossConfigs(b *workload.Benchmark, m *machine.Machine, cfgs []topology.Placement) []wholeRun {
	accs := make([]power.Accumulator, len(cfgs))
	dst := make([]machine.Result, len(cfgs))
	for pi := range b.Phases {
		m.RunPhaseSweep(&b.Phases[pi], b.Idiosyncrasy, cfgs, dst)
		for ci := range cfgs {
			accs[ci].Add(dst[ci].TimeSec*float64(b.Iterations), s.Power.Power(dst[ci].Activity))
		}
	}
	out := make([]wholeRun, len(cfgs))
	for ci := range cfgs {
		out[ci] = wholeRun{accs[ci].TimeSec, accs[ci].AvgPower(), accs[ci].EnergyJ}
	}
	return out
}
