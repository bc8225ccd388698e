// Package dataset builds the supervised training data for ACTOR's
// predictors: it executes benchmark phases on the (noisy) machine model at
// the sampling configuration, collects the full event set's rates through
// the PMU's rotating pmu.CounterWidth-counter window, and pairs the
// resulting feature vectors with measured IPC at every target
// configuration.
//
// It also provides the leave-one-out splits used in the paper's evaluation
// ("we use each benchmark for evaluation by training as many models as
// there are applications, each time leaving one particular application out
// of the training process").
package dataset

import (
	"fmt"
	"sort"

	"github.com/greenhpc/actor/internal/ann"
	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/parallel"
	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// PhaseSample is the collected data for one phase observation: the feature
// vector seen at the sampling configuration plus the measured and
// ground-truth IPC at every configuration.
type PhaseSample struct {
	// Bench and Phase identify the source parallel region.
	Bench, Phase string
	// Rates are the averaged per-cycle event rates observed at the
	// sampling configuration: Rates.V[pmu.Instructions] is the sampled IPC,
	// and Rates.Has the events the rotation measured.
	Rates pmu.Rates
	// MeasuredIPC maps configuration name → noisy measured aggregate IPC
	// (what a training run would record).
	MeasuredIPC map[string]float64
	// TrueIPC maps configuration name → noiseless model IPC (used only
	// for oracle construction and error scoring, never for training).
	TrueIPC map[string]float64
}

// Features flattens the sample's rates into the model input vector
// [sampled IPC, event rates...] for the given event list.
func (s *PhaseSample) Features(events []pmu.Event) []float64 {
	return s.Rates.VectorInto(nil, events)
}

// Collector gathers PhaseSamples from benchmarks on a machine pair: a noisy
// machine for realistic measurements and a pristine one for ground truth.
type Collector struct {
	// Noisy is the measurement machine (see machine.WithNoise).
	Noisy *machine.Machine
	// Truth is the noiseless machine used for oracle IPC.
	Truth *machine.Machine
	// SampleConfig is where counters are sampled: maximal concurrency
	// (the paper samples at the highest thread count so predictions see
	// the greatest possible interference).
	SampleConfig topology.Placement
	// Configs are all configurations needing IPC labels.
	Configs []topology.Placement
	// Repetitions is how many independent noisy observations to collect
	// per phase (more repetitions expose the noise distribution to the
	// model).
	Repetitions int
	// NoiseBase, when non-nil, switches collection to the parallel
	// engine: every (benchmark, phase, repetition) task runs on its own
	// noisy machine whose noise stream is forked from NoiseBase under a
	// stable task key, so results are bit-identical at any GOMAXPROCS.
	// When nil, collection runs sequentially on Noisy's shared stream.
	// That sequential path is the one Engine.Train, actor-train and
	// actord collect on, and its draw order defines the pinned bank
	// bytes (BANK_SHA256, BANK_FULL_SHA256 in scripts/determinism.sh);
	// leave-one-out training (the LOO pins) and recalibration campaigns
	// take the forked path. The two draw different noise, so both stay.
	NoiseBase *noise.Source
}

// NewCollector returns a collector with the paper's defaults: sampling at
// configuration 4, labels for all five configurations and 6 repetitions
// per phase. Every phase rotates the full twelve-event set through the
// pmu.CounterWidth counters.
func NewCollector(noisy, truth *machine.Machine) *Collector {
	cfgs := topology.PaperConfigs()
	return &Collector{
		Noisy:        noisy,
		Truth:        truth,
		SampleConfig: cfgs[len(cfgs)-1],
		Configs:      cfgs,
		Repetitions:  6,
	}
}

// CollectBenchmark produces Repetitions samples for every phase of the
// benchmark, ordered (phase, repetition). With NoiseBase set the
// (phase, repetition) tasks fan out through the parallel engine, each on a
// privately-forked noise stream; otherwise collection is sequential on the
// shared Noisy machine.
func (c *Collector) CollectBenchmark(b *workload.Benchmark) ([]PhaseSample, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if c.NoiseBase == nil {
		var out []PhaseSample
		for pi := range b.Phases {
			p := &b.Phases[pi]
			for rep := 0; rep < c.Repetitions; rep++ {
				s, err := c.collectPhase(c.Noisy, b, p)
				if err != nil {
					return nil, fmt.Errorf("collect %s/%s: %w", b.Name, p.Name, err)
				}
				out = append(out, s)
			}
		}
		return out, nil
	}
	n := len(b.Phases) * c.Repetitions
	return parallel.Map(n, func(i int) (PhaseSample, error) {
		pi, rep := i/c.Repetitions, i%c.Repetitions
		p := &b.Phases[pi]
		key := fmt.Sprintf("collect/%s/%s/%d", b.Name, p.Name, rep)
		noisy := c.Noisy.WithNoise(c.NoiseBase.Fork(key))
		s, err := c.collectPhase(noisy, b, p)
		if err != nil {
			return PhaseSample{}, fmt.Errorf("collect %s/%s: %w", b.Name, p.Name, err)
		}
		return s, nil
	})
}

// collectPhase runs one full sampling rotation plus per-config measurement
// for a single phase on the given noisy machine.
func (c *Collector) collectPhase(noisy *machine.Machine, b *workload.Benchmark, p *workload.PhaseProfile) (PhaseSample, error) {
	plan, err := pmu.PlanRotation(pmu.FullEventSet(), 0)
	if err != nil {
		return PhaseSample{}, err
	}
	sampler := pmu.NewSampler(pmu.NewCounterFile(), plan)
	for !sampler.Done() {
		res := noisy.RunPhase(p, b.Idiosyncrasy, c.SampleConfig)
		if err := sampler.Observe(res.Counts); err != nil {
			return PhaseSample{}, err
		}
	}
	s := PhaseSample{
		Bench:       b.Name,
		Phase:       p.Name,
		Rates:       sampler.Rates(),
		MeasuredIPC: make(map[string]float64, len(c.Configs)),
		TrueIPC:     make(map[string]float64, len(c.Configs)),
	}
	for _, cfg := range c.Configs {
		s.MeasuredIPC[cfg.Name] = noisy.RunPhase(p, b.Idiosyncrasy, cfg).AggIPC
		s.TrueIPC[cfg.Name] = c.Truth.RunPhase(p, b.Idiosyncrasy, cfg).AggIPC
	}
	return s, nil
}

// CollectSuite collects samples for every benchmark, keyed by name.
// Benchmarks fan out through the parallel engine when NoiseBase is set.
func (c *Collector) CollectSuite(benches []*workload.Benchmark) (map[string][]PhaseSample, error) {
	if c.NoiseBase == nil {
		out := make(map[string][]PhaseSample, len(benches))
		for _, b := range benches {
			ss, err := c.CollectBenchmark(b)
			if err != nil {
				return nil, err
			}
			out[b.Name] = ss
		}
		return out, nil
	}
	perBench, err := parallel.Map(len(benches), func(i int) ([]PhaseSample, error) {
		return c.CollectBenchmark(benches[i])
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]PhaseSample, len(benches))
	for i, b := range benches {
		out[b.Name] = perBench[i]
	}
	return out, nil
}

// LeaveOneOut merges the samples of every benchmark except excluded — the
// paper's evaluation protocol, guaranteeing the model never saw the target
// application. Benchmarks are merged in sorted-name order: the map's random
// iteration order used to leak into fold assignment, making "deterministic"
// training differ between runs of the same seed.
func LeaveOneOut(suite map[string][]PhaseSample, excluded string) []PhaseSample {
	names := make([]string, 0, len(suite))
	for name := range suite {
		if name != excluded {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []PhaseSample
	for _, name := range names {
		out = append(out, suite[name]...)
	}
	return out
}

// ToSamples converts phase samples into supervised examples for one target
// configuration using the given event list as features: X = [sampled IPC,
// rates...], Y = measured IPC on the target.
func ToSamples(phaseSamples []PhaseSample, events []pmu.Event, targetConfig string) ([]ann.Sample, error) {
	out := make([]ann.Sample, 0, len(phaseSamples))
	for i := range phaseSamples {
		ps := &phaseSamples[i]
		y, ok := ps.MeasuredIPC[targetConfig]
		if !ok {
			return nil, fmt.Errorf("dataset: sample %s/%s has no label for config %q",
				ps.Bench, ps.Phase, targetConfig)
		}
		out = append(out, ann.Sample{X: ps.Features(events), Y: y})
	}
	return out, nil
}

// ToSamplesMulti builds the supervised sets for several target
// configurations at once. The feature vector of a phase sample does not
// depend on the target, so it is computed once and shared (aliased, not
// copied) by every target's sample list — predictor-bank training trains
// one model per target on identical features and must not pay the feature
// extraction once per target. Callers must treat the X vectors as
// read-only, which the trainers do (normalisation copies into private
// packed buffers).
func ToSamplesMulti(phaseSamples []PhaseSample, events []pmu.Event, targets []string) (map[string][]ann.Sample, error) {
	out := make(map[string][]ann.Sample, len(targets))
	for _, t := range targets {
		out[t] = make([]ann.Sample, 0, len(phaseSamples))
	}
	for i := range phaseSamples {
		ps := &phaseSamples[i]
		x := ps.Features(events)
		for _, t := range targets {
			y, ok := ps.MeasuredIPC[t]
			if !ok {
				return nil, fmt.Errorf("dataset: sample %s/%s has no label for config %q",
					ps.Bench, ps.Phase, t)
			}
			out[t] = append(out[t], ann.Sample{X: x, Y: y})
		}
	}
	return out, nil
}
