package actor

import "fmt"

// Kind selects the model family a bank is trained with.
type Kind string

const (
	// KindANN trains the paper's k-fold ANN ensembles (the default).
	KindANN Kind = "ann"
	// KindMLR trains the prior-work multiple-linear-regression baseline —
	// orders of magnitude cheaper to train, useful for smoke tests and as
	// the comparison model of the paper's ablation.
	KindMLR Kind = "mlr"
)

// config is the resolved option set an Engine is built from.
type config struct {
	seed        int64
	fast        bool
	topoDesc    string
	folds       int
	reps        int
	eventCounts []int
	kind        Kind
	maxEpochs   int
}

// validate refuses what training would refuse only after the whole
// collection campaign, and the negative counts it would silently replace
// by their defaults.
func (c *config) validate() error {
	switch {
	case c.folds < 0:
		return fmt.Errorf("actor: folds must not be negative (0 = default), got %d", c.folds)
	case c.reps < 0:
		return fmt.Errorf("actor: repetitions must not be negative (0 = default), got %d", c.reps)
	case c.maxEpochs < 0:
		return fmt.Errorf("actor: max epochs must not be negative (0 = default), got %d", c.maxEpochs)
	case c.kind == KindANN && c.folds > 0 && c.folds < 3:
		return fmt.Errorf("actor: an ANN ensemble needs at least 3 folds (train/stop/estimate), got %d", c.folds)
	}
	return nil
}

// mlrRidge is the ridge term of every MLR fit an Engine makes.
const mlrRidge = 1e-8

func defaultConfig() config {
	return config{
		seed: 42,
		kind: KindANN,
	}
}

// Option customises an Engine; pass options to New.
type Option func(*config)

// WithTopology replaces the paper's quad-core Xeon with the machine
// described by a compact topology descriptor, e.g. "16x2" (a 32-core
// homogeneous part) or "16x4+32x2:little" (a 128-core big/little machine).
// The configuration space becomes the topology's canonical placement
// enumeration. The grammar is that of topology.ParseDesc:
// "count x groupSize [:class]" terms joined by "+", with an optional
// "@GHz" clock suffix.
func WithTopology(desc string) Option {
	return func(c *config) { c.topoDesc = desc }
}

// WithFast selects the reduced-fidelity training options (smaller ensembles,
// fewer sampling repetitions, tighter epoch budgets) — the same trade the
// test suite makes to keep the full pipeline runnable in seconds.
func WithFast() Option {
	return func(c *config) { c.fast = true }
}

// WithSeed sets the seed driving every stochastic component: measurement
// noise, fold shuffles and weight initialisation. The default is 42.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithFolds overrides the cross-validation ensemble size (10 by default,
// 5 with WithFast). New refuses a negative k, and a k of 1 or 2 for the
// ANN trainer, which needs at least 3.
func WithFolds(k int) Option {
	return func(c *config) { c.folds = k }
}

// WithRepetitions overrides how many independent noisy sampling passes are
// collected per phase when building training data. New refuses a negative n.
func WithRepetitions(n int) Option {
	return func(c *config) { c.reps = n }
}

// WithEventCounts sets the feature-set sizes the bank trains, richest
// first. The default {12, 4, 2} mirrors the paper: the full event set plus
// the reduced sets used when an application's iteration count leaves too
// small a sampling budget.
func WithEventCounts(counts ...int) Option {
	return func(c *config) { c.eventCounts = counts }
}

// WithMLR makes Train build the prior-work linear-regression baseline
// (KindMLR) instead of the default ANN bank (KindANN).
func WithMLR() Option {
	return func(c *config) { c.kind = KindMLR }
}

// WithMaxEpochs caps the ANN training epochs per member network — a fidelity
// knob below WithFast used by smoke tests and benchmarks. New refuses a
// negative n.
func WithMaxEpochs(n int) Option {
	return func(c *config) { c.maxEpochs = n }
}
