package actor

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"

	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/dataset"
	"github.com/greenhpc/actor/internal/exp"
	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/parallel"
	"github.com/greenhpc/actor/internal/topology"
)

// Engine is the facade over one simulated platform: the machine pair
// (noisy + ground truth) with its shared phase memo, the power model, the
// configuration space and the benchmark suite. Engines are safe for
// concurrent use; the expensive state (the memo) is shared and lock-free
// on the hot path.
type Engine struct {
	cfg   config
	suite *exp.Suite

	mu   sync.Mutex
	bank *Bank // attached by Train / LoadBank / AttachBank
}

// New builds an Engine from functional options. Without options it models
// the paper's quad-core Xeon under the paper-fidelity training options.
func New(opts ...Option) (*Engine, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eopts := exp.DefaultOptions()
	if cfg.fast {
		eopts = exp.FastOptions()
	}
	eopts.Seed = cfg.seed
	if cfg.folds > 0 {
		eopts.Folds = cfg.folds
	}
	if cfg.reps > 0 {
		eopts.Repetitions = cfg.reps
	}
	if cfg.maxEpochs > 0 {
		eopts.ANN.MaxEpochs = cfg.maxEpochs
	}
	if cfg.topoDesc != "" {
		topo, err := topology.ParseDesc(cfg.topoDesc)
		if err != nil {
			return nil, err
		}
		eopts.Topology = topo
	}
	suite, err := exp.NewSuite(eopts)
	if err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, suite: suite}, nil
}

// ForBank builds an Engine on the bank's own platform (its topology
// descriptor and seed) and attaches the bank, so predictions and sweeps are
// served against the machine the bank was trained for. Extra options are
// applied on top.
func ForBank(b *Bank, opts ...Option) (*Engine, error) {
	base := []Option{WithSeed(b.meta.Seed)}
	if b.meta.Topology != "" {
		base = append(base, WithTopology(b.meta.Topology))
	}
	eng, err := New(append(base, opts...)...)
	if err != nil {
		return nil, err
	}
	if err := eng.AttachBank(b); err != nil {
		return nil, err
	}
	return eng, nil
}

// TopologyDesc returns the engine's topology descriptor ("" means the
// paper's quad-core Xeon).
func (e *Engine) TopologyDesc() string { return e.cfg.topoDesc }

// ConfigNames returns the engine's configuration space labels in canonical
// order (the last entry is the maximal-concurrency sampling configuration).
func (e *Engine) ConfigNames() []string { return e.suite.ConfigNames() }

// BenchNames returns the benchmark suite's workload names.
func (e *Engine) BenchNames() []string {
	out := make([]string, len(e.suite.Benches))
	for i, b := range e.suite.Benches {
		out[i] = b.Name
	}
	return out
}

// Bank returns the attached predictor bank, or nil when none is attached.
func (e *Engine) Bank() *Bank {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bank
}

// AttachBank makes b the engine's serving bank after checking it matches
// the engine's platform (same topology descriptor and configuration space).
func (e *Engine) AttachBank(b *Bank) error {
	if b == nil {
		return fmt.Errorf("actor: cannot attach a nil bank")
	}
	if b.meta.Topology != e.cfg.topoDesc {
		return fmt.Errorf("actor: bank was trained for topology %q, engine models %q",
			describeDesc(b.meta.Topology), describeDesc(e.cfg.topoDesc))
	}
	have := e.suite.ConfigNames()
	if len(b.meta.Configs) != len(have) {
		return fmt.Errorf("actor: bank has %d configurations, engine space has %d",
			len(b.meta.Configs), len(have))
	}
	for i, name := range b.meta.Configs {
		if have[i] != name {
			return fmt.Errorf("actor: bank configuration %d is %q, engine space has %q", i, name, have[i])
		}
	}
	e.mu.Lock()
	e.bank = b
	e.mu.Unlock()
	return nil
}

func describeDesc(desc string) string {
	if desc == "" {
		return "the paper's quad-core Xeon"
	}
	return desc
}

// Train runs the offline pipeline end to end: collect noisy counter samples
// for the whole benchmark suite at the sampling configuration, then train
// one predictor per feature-set size over every target configuration. The
// returned bank is also attached to the engine, ready for Predict and for
// serialization with Bank.Save.
func (e *Engine) Train(ctx context.Context) (*Bank, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	all, err := e.collectCampaign(nil)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	targets := e.suite.Targets()
	ecs := e.cfg.eventCounts
	if len(ecs) == 0 {
		ecs = []int{12, 4, 2}
	}
	var bank *core.Bank
	if e.cfg.kind == KindMLR {
		bank, err = core.TrainMLRBank(all, ecs, targets, mlrRidge)
	} else {
		cfg := e.suite.Opts.ANN
		cfg.Seed = parallel.SeedFor(e.cfg.seed, "suite-bank")
		bank, err = core.TrainANNBank(all, ecs, targets, e.suite.Opts.Folds, cfg)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	wrapped := e.wrapBank(bank)
	e.mu.Lock()
	e.bank = wrapped
	e.mu.Unlock()
	return wrapped, nil
}

// collectCampaign runs a characterisation campaign for the whole benchmark
// suite at the sampling configuration and returns the samples in benchmark
// order. With noiseBase nil the suite's noisy machine draws the noise
// (Train); otherwise every benchmark's noise forks from noiseBase (a
// recalibration campaign).
func (e *Engine) collectCampaign(noiseBase *noise.Source) ([]dataset.PhaseSample, error) {
	collector := dataset.NewCollector(e.suite.Noisy, e.suite.Truth)
	collector.Configs = e.suite.Configs
	collector.SampleConfig = e.suite.SampleConfig()
	collector.Repetitions = e.suite.Opts.Repetitions
	collector.NoiseBase = noiseBase
	suiteSamples, err := collector.CollectSuite(e.suite.Benches)
	if err != nil {
		return nil, err
	}
	var all []dataset.PhaseSample
	for _, b := range e.suite.Benches {
		all = append(all, suiteSamples[b.Name]...)
	}
	return all, nil
}

// TrainLeaveOneOut trains one bank per benchmark under the paper's
// leave-one-out protocol (each bank never sees its own benchmark's data) —
// the evaluation-grade counterpart of Train, keyed by held-out benchmark.
// The protocol is ANN-only (the paper's Section IV-A methodology); engines
// built with WithMLR get a descriptive error instead of silently training
// the wrong model family.
func (e *Engine) TrainLeaveOneOut(ctx context.Context) (map[string]*Bank, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.cfg.kind != KindANN {
		return nil, fmt.Errorf("actor: leave-one-out training is ANN-only (engine was built with kind %q)", e.cfg.kind)
	}
	loo, err := e.suite.TrainLeaveOneOut()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]*Bank, len(loo.Banks))
	for name, bank := range loo.Banks {
		out[name] = e.wrapBank(bank)
	}
	return out, nil
}

// wrapBank attaches the engine's platform metadata to a trained core bank.
func (e *Engine) wrapBank(bank *core.Bank) *Bank {
	return newBank(bank, Meta{
		Version:      BankVersion,
		Kind:         e.cfg.kind,
		Topology:     e.cfg.topoDesc,
		TopologyName: e.suite.Truth.Topo.Name,
		Cores:        e.suite.Truth.Topo.NumCores,
		Seed:         e.cfg.seed,
		Folds:        e.suite.Opts.Folds,
		Configs:      e.suite.ConfigNames(),
		SampleConfig: e.suite.SampleConfig().Name,
	})
}

// SweepRequest names the workload a Sweep evaluates: one benchmark, and
// optionally a subset of its phases (all phases when empty).
type SweepRequest struct {
	// Bench is the benchmark name (see BenchNames).
	Bench string `json:"bench"`
	// Phases restricts the sweep to the named phases; empty means every
	// phase of the benchmark.
	Phases []string `json:"phases,omitempty"`
}

// SweepRow is one placement's noiseless response for a phase.
type SweepRow struct {
	// Config is the placement name within the engine's space.
	Config string `json:"config"`
	// TimeSec is the modelled execution time of one phase execution.
	TimeSec float64 `json:"time_sec"`
	// AggIPC is the modelled aggregate instructions per cycle.
	AggIPC float64 `json:"ipc"`
}

// PhaseSweep is one phase evaluated across the whole configuration space.
type PhaseSweep struct {
	Bench string     `json:"bench"`
	Phase string     `json:"phase"`
	Rows  []SweepRow `json:"rows"`
}

// Sweep evaluates the requested phases across every placement of the
// engine's configuration space in one batched RunPhaseSweep call per phase
// on the ground-truth machine. Results are deterministic and served from
// the shared phase memo when warm, so a repeated sweep solves nothing;
// it still allocates the returned sweeps and one row slice per phase,
// which are the caller's, and two scratch slices (the phase list and the
// results), four objects for one phase.
func (e *Engine) Sweep(ctx context.Context, req SweepRequest) ([]PhaseSweep, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, err := e.suite.Bench(req.Bench)
	if err != nil {
		return nil, err
	}
	phaseIdx := make([]int, 0, len(b.Phases))
	if len(req.Phases) == 0 {
		for pi := range b.Phases {
			phaseIdx = append(phaseIdx, pi)
		}
	} else {
		for _, name := range req.Phases {
			found := -1
			for pi := range b.Phases {
				if b.Phases[pi].Name == name {
					found = pi
					break
				}
			}
			if found < 0 {
				return nil, fmt.Errorf("actor: benchmark %s has no phase %q", b.Name, name)
			}
			phaseIdx = append(phaseIdx, found)
		}
	}
	cfgs := e.suite.Configs
	out := make([]PhaseSweep, 0, len(phaseIdx))
	results := make([]machine.Result, len(cfgs))
	for _, pi := range phaseIdx {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.suite.Truth.RunPhaseSweep(&b.Phases[pi], b.Idiosyncrasy, cfgs, results)
		rows := make([]SweepRow, len(cfgs))
		for ci := range cfgs {
			rows[ci] = SweepRow{
				Config:  cfgs[ci].Name,
				TimeSec: results[ci].TimeSec,
				AggIPC:  results[ci].AggIPC,
			}
		}
		out = append(out, PhaseSweep{Bench: b.Name, Phase: b.Phases[pi].Name, Rows: rows})
	}
	return out, nil
}

// RunStudy regenerates one study of the paper's evaluation (or "all" for
// the complete set), rendering results to w. Valid names are scalability,
// phases, power, accuracy, ranks, throttle, extensions, hetero, generalize,
// robustness and all; bench selects the benchmark for the "phases" study
// (ignored elsewhere, SP when empty).
func (e *Engine) RunStudy(ctx context.Context, w io.Writer, study, bench string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if bench == "" {
		bench = "SP"
	}
	s := e.suite
	train := func() (*exp.LOOModels, error) {
		// Progress to stderr: paper-fidelity training takes minutes and
		// the study output proper goes to w.
		fmt.Fprintln(os.Stderr, "training leave-one-out ANN ensembles...")
		return s.TrainLeaveOneOut()
	}
	run1 := func() error {
		r, err := s.Fig1ExecutionTimes()
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	}
	run2 := func() error {
		r, err := s.Fig2PhaseIPC(bench)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	}
	run3 := func() error {
		r, err := s.Fig3PowerEnergy()
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	}
	run67 := func(loo *exp.LOOModels, show6, show7 bool) error {
		f6, f7, err := s.EvalPrediction(loo)
		if err != nil {
			return err
		}
		if show6 {
			f6.Render(w)
		}
		if show7 {
			f7.Render(w)
		}
		return nil
	}
	run8 := func(loo *exp.LOOModels) error {
		r, err := s.Fig8Throttling(loo)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	}
	runExtensions := func() error {
		dv, err := s.DVFSStudy()
		if err != nil {
			return err
		}
		dv.Render(w)
		fs, err := s.FutureScaling()
		if err != nil {
			return err
		}
		fs.Render(w)
		cs, err := s.CoScheduling()
		if err != nil {
			return err
		}
		cs.Render(w)
		return nil
	}

	switch study {
	case "scalability":
		return run1()
	case "phases":
		return run2()
	case "power":
		return run3()
	case "accuracy":
		loo, err := train()
		if err != nil {
			return err
		}
		return run67(loo, true, false)
	case "ranks":
		loo, err := train()
		if err != nil {
			return err
		}
		return run67(loo, false, true)
	case "throttle":
		loo, err := train()
		if err != nil {
			return err
		}
		return run8(loo)
	case "extensions":
		return runExtensions()
	case "hetero":
		h, err := s.HeteroScaling(nil)
		if err != nil {
			return err
		}
		h.Render(w)
		return nil
	case "generalize":
		g, err := s.Generalize(12)
		if err != nil {
			return err
		}
		g.Render(w)
		return nil
	case "robustness":
		r, err := exp.Robustness(s.Opts, []int64{11, 22, 33, 44, 55})
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	case "all":
		for _, step := range []func() error{run1, run2, run3} {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := step(); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		loo, err := train()
		if err != nil {
			return err
		}
		if err := run67(loo, true, true); err != nil {
			return err
		}
		if err := run8(loo); err != nil {
			return err
		}
		return runExtensions()
	default:
		return fmt.Errorf("actor: unknown study %q (scalability, phases, power, accuracy, ranks, throttle, extensions, hetero, generalize, robustness, all)", study)
	}
}
