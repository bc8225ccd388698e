// Command actor-train performs ACTOR's offline training phase through the
// public facade: it collects counter samples from the benchmark suite on
// the simulated platform (the paper's quad-core Xeon, or any -topology
// descriptor), trains the predictor bank, and writes it in the versioned
// bank format that cmd/actor-predict and cmd/actord load.
//
// Usage:
//
//	actor-train [-bank PATH] [-seed N] [-folds K] [-fast] [-topology D] [-mlr] [-loo]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/greenhpc/actor/pkg/actor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it parses args, trains, writes the bank
// (or the leave-one-out banks) and a one-line summary to stdout, errors to
// stderr, and returns the exit code — 0 on success, 1 on a failed training
// or write, 2 on a bad flag or a positional argument.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("actor-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := actor.BindFlags(fs)
	loo := fs.Bool("loo", false, "write one leave-one-out bank per benchmark (default: one bank over the full suite)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "actor-train: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if err := train(f, *loo, stdout); err != nil {
		fmt.Fprintln(stderr, "actor-train:", err)
		return 1
	}
	return 0
}

func train(f *actor.Flags, loo bool, stdout io.Writer) error {
	eng, err := f.Engine()
	if err != nil {
		return err
	}
	if dir := filepath.Dir(f.Bank); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	ctx := context.Background()

	if loo {
		banks, err := eng.TrainLeaveOneOut(ctx)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(banks))
		for name := range banks {
			names = append(names, name)
		}
		sort.Strings(names)
		dir := filepath.Dir(f.Bank)
		for _, name := range names {
			if err := banks[name].Save(filepath.Join(dir, "loo-"+name+".json")); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "wrote %d leave-one-out banks to %s\n", len(names), dir)
		return nil
	}

	// Whole-suite bank: the deployment scenario the paper describes ("the
	// model would generally be trained a single time ... and subsequently
	// used for any desired application").
	bank, err := eng.Train(ctx)
	if err != nil {
		return err
	}
	if err := bank.Save(f.Bank); err != nil {
		return err
	}
	meta := bank.Meta()
	fmt.Fprintf(stdout, "wrote %s bank (%d event sets, %d configs) to %s\n",
		meta.Kind, len(meta.EventSets), len(meta.Configs), f.Bank)
	return nil
}
