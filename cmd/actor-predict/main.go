// Command actor-predict loads a trained bank and predicts the best
// threading configuration from observed counter rates — the online
// decision step, runnable standalone for inspection and scripting.
//
// Rates arrive as JSON on stdin: a map from event mnemonic to per-cycle
// rate, with "IPC" giving the sampled instructions per cycle:
//
//	echo '{"IPC":1.1,"L2_LINES_IN":0.004,"BUS_TRANS_MEM":0.005}' | \
//	    actor-predict -bank models/bank.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/greenhpc/actor/pkg/actor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the command behind main: it parses args, reads the rates from
// stdin, writes the ranking and the recommendation to stdout and errors to
// stderr, and returns the exit code — 0 on success, 1 on a failed
// prediction, 2 on a bad flag or a positional argument.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("actor-predict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := actor.BindFlags(fs, actor.FlagsBank)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "actor-predict: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if err := predict(f, stdin, stdout); err != nil {
		fmt.Fprintln(stderr, "actor-predict:", err)
		return 1
	}
	return 0
}

func predict(f *actor.Flags, stdin io.Reader, stdout io.Writer) error {
	bank, err := f.LoadBank()
	if err != nil {
		return err
	}
	in, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	var rates actor.Rates
	if err := json.Unmarshal(in, &rates); err != nil {
		return fmt.Errorf("parsing rates from stdin: %w", err)
	}

	ranked, err := bank.Predict(context.Background(), rates)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "predicted IPC by configuration (best first):")
	for _, p := range ranked {
		note := ""
		if p.Observed {
			note = " (observed)"
		}
		fmt.Fprintf(stdout, "  %-4s %.3f%s\n", p.Config, p.IPC, note)
	}
	best := ranked[0]
	if best.Observed {
		fmt.Fprintf(stdout, "recommendation: stay at the sampling configuration (observed IPC %.3f)\n", best.IPC)
	} else {
		fmt.Fprintf(stdout, "recommendation: throttle to configuration %s\n", best.Config)
	}
	return nil
}
