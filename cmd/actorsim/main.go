// Command actorsim reproduces the paper's evaluation on the simulated
// quad-core Xeon platform — or, with -topology, on any machine described
// by a compact topology descriptor. Each subcommand regenerates one
// figure; "all" runs the complete evaluation. Everything runs through the
// public pkg/actor facade.
//
// Usage:
//
//	actorsim [flags] {scalability|phases|power|accuracy|ranks|throttle|extensions|hetero|generalize|robustness|all}
//
// Flags:
//
//	-seed N      experiment seed (default 42)
//	-fast        use the reduced-fidelity training options (quicker)
//	-bench B     benchmark for the "phases" subcommand (default SP)
//	-topology D  run on the machine described by D instead of the
//	             quad-core Xeon, e.g. "16x2" (32 homogeneous cores) or
//	             "16x4+32x2:little" (a 128-core big/little part)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/greenhpc/actor/pkg/actor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it parses args, writes the study to
// stdout and errors to stderr, and returns the exit code — 0 on success, 1
// on a failed or unknown study, 2 on a bad flag or more than one study.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("actorsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := actor.BindFlags(fs, actor.FlagsPlatform)
	bench := fs.String("bench", "SP", "benchmark for the phases subcommand")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 1 {
		fmt.Fprintf(stderr, "actorsim: unexpected argument %q (one study at a time)\n", fs.Arg(1))
		fs.Usage()
		return 2
	}
	study := "all"
	if fs.NArg() == 1 {
		study = fs.Arg(0)
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "actorsim:", err)
		return 1
	}

	eng, err := f.Engine()
	if err != nil {
		return fail(err)
	}
	if err := eng.RunStudy(context.Background(), stdout, study, *bench); err != nil {
		return fail(err)
	}
	return 0
}
