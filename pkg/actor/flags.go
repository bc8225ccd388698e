package actor

import (
	"flag"
	"fmt"
)

// Flags is the command-line surface shared by the cmd/ entry points
// (actor-train, actor-predict, actorsim, actord): the platform and
// training options plus the bank path, bound once and validated in one
// place instead of re-implemented per main.
type Flags struct {
	// Seed drives every stochastic component.
	Seed int64
	// Fast selects reduced-fidelity training (see WithFast).
	Fast bool
	// Topology is a compact topology descriptor ("" = the paper's
	// quad-core Xeon).
	Topology string
	// Folds is the cross-validation ensemble size (0 = option default).
	Folds int
	// Bank is the path of a serialized bank (actor-train writes it,
	// actor-predict and actord read it).
	Bank string
	// MLR trains the linear-regression baseline instead of ANN ensembles.
	MLR bool
}

// FlagGroup names a subset of the shared flags, so each command registers
// only the flags it actually honours (actorsim has no bank, actor-predict
// no training knobs).
type FlagGroup int

const (
	// FlagsPlatform binds -seed, -fast, -topology and -folds.
	FlagsPlatform FlagGroup = iota
	// FlagsBank binds -bank.
	FlagsBank
	// FlagsKind binds -mlr.
	FlagsKind
)

// BindFlags registers the named flag groups on fs (all groups when none
// are given) and returns the destination struct; read it after fs.Parse.
func BindFlags(fs *flag.FlagSet, groups ...FlagGroup) *Flags {
	if len(groups) == 0 {
		groups = []FlagGroup{FlagsPlatform, FlagsBank, FlagsKind}
	}
	f := &Flags{Seed: 42, Bank: "models/bank.json"}
	for _, g := range groups {
		switch g {
		case FlagsPlatform:
			fs.Int64Var(&f.Seed, "seed", f.Seed, "experiment/training seed")
			fs.BoolVar(&f.Fast, "fast", false, "use reduced-fidelity training options")
			fs.StringVar(&f.Topology, "topology", "",
				`topology descriptor, e.g. "16x2" or "16x4+32x2:little" (default: the paper's quad-core Xeon)`)
			fs.IntVar(&f.Folds, "folds", 0, "cross-validation folds (0 = option default: 10, or 5 with -fast)")
		case FlagsBank:
			fs.StringVar(&f.Bank, "bank", f.Bank, "path of the serialized predictor bank")
		case FlagsKind:
			fs.BoolVar(&f.MLR, "mlr", false, "train the linear-regression baseline instead of ANN ensembles")
		}
	}
	return f
}

// Options converts the parsed flags into engine options.
func (f *Flags) Options() []Option {
	opts := []Option{WithSeed(f.Seed)}
	if f.Fast {
		opts = append(opts, WithFast())
	}
	if f.Topology != "" {
		opts = append(opts, WithTopology(f.Topology))
	}
	if f.Folds != 0 {
		opts = append(opts, WithFolds(f.Folds))
	}
	if f.MLR {
		opts = append(opts, WithMLR())
	}
	return opts
}

// Engine builds an Engine from the parsed flags (topology descriptor
// validation happens here).
func (f *Flags) Engine() (*Engine, error) {
	return New(f.Options()...)
}

// LoadBank loads the bank at the -bank path.
func (f *Flags) LoadBank() (*Bank, error) {
	if f.Bank == "" {
		return nil, fmt.Errorf("actor: no bank path given (-bank)")
	}
	return LoadBank(f.Bank)
}
