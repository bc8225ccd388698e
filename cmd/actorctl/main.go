// Command actorctl is the distributed sweep coordinator: it partitions the
// full (benchmark × phase) sweep workload of a bank's platform across a
// fleet of actord workers, retries and hedges failures, and writes the
// merged per-phase rows — byte-identical to evaluating the same workload
// in a single process, whatever the fleet does.
//
// Usage:
//
//	actorctl -bank models/bank.json \
//	    -workers http://h1:7690,http://h2:7690,http://h3:7690 [-out sweeps.json]
//
// With no -workers (or -local) the run degrades to in-process evaluation —
// the same code path a distributed run falls back to when every worker
// dies. Set ACTOR_FAULTS (see internal/dist/faultinject) to inject drops,
// delays, 5xxs, truncated bodies and worker kills into the coordinator's
// transport:
//
//	ACTOR_FAULTS="drop=0.2,err500=0.1,truncate=0.1,seed=7" actorctl ...
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/greenhpc/actor/internal/dist"
	"github.com/greenhpc/actor/internal/dist/faultinject"
	"github.com/greenhpc/actor/pkg/actor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it parses args, writes the merged sweeps
// to stdout (or -out) and the summary and errors to stderr, and returns the
// exit code — 0 on success, 1 on a failed run, 2 on a bad flag or a
// positional argument.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("actorctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := actor.BindFlags(fs, actor.FlagsBank)
	workers := fs.String("workers", "", "comma-separated actord base URLs (empty = in-process evaluation)")
	local := fs.Bool("local", false, "force in-process evaluation (ignore -workers)")
	timeout := fs.Duration("timeout", 15*time.Second, "per-attempt request timeout")
	retries := fs.Int("retries", 3, "times a failed shard is reassigned before in-process fallback")
	hedge := fs.Duration("hedge", 250*time.Millisecond, "minimum straggler delay before a shard is hedged")
	shardUnits := fs.Int("shard-units", 1, "(benchmark, phase) units per shard")
	out := fs.String("out", "", "write merged sweeps to this file (default stdout)")
	quiet := fs.Bool("q", false, "suppress per-event warnings (summary still printed)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "actorctl: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "actorctl:", err)
		return 1
	}
	// dist.New reads a non-positive setting as its default, so an explicit
	// -retries 0 would still reassign three times without a word.
	for _, d := range []struct {
		name string
		bad  bool
	}{
		{"timeout", *timeout <= 0},
		{"retries", *retries < 1},
		{"hedge", *hedge <= 0},
		{"shard-units", *shardUnits < 1},
	} {
		if d.bad {
			return fail(fmt.Errorf("-%s %s is not positive", d.name, fs.Lookup(d.name).Value))
		}
	}

	bank, err := f.LoadBank()
	if err != nil {
		return fail(err)
	}
	eng, err := actor.ForBank(bank)
	if err != nil {
		return fail(err)
	}

	var urls []string
	if !*local {
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, strings.TrimRight(u, "/"))
			}
		}
	}
	transport, err := faultinject.FromEnv(http.DefaultTransport, os.Getenv("ACTOR_FAULTS"))
	if err != nil {
		return fail(err)
	}
	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	coord := dist.New(eng, dist.Options{
		Workers:    urls,
		Client:     &http.Client{Transport: transport},
		Timeout:    *timeout,
		Retries:    *retries,
		HedgeFloor: *hedge,
		ShardUnits: *shardUnits,
		Logf:       logf,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	sweeps, err := coord.Run(ctx)
	if err != nil {
		return fail(err)
	}

	w := stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer file.Close()
		w = file
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(sweeps); err != nil {
		return fail(err)
	}

	st := coord.Stats()
	fmt.Fprintf(stderr, "actorctl: %d shards in %s — %d remote, %d local, %d retries, %d hedges (%d won)\n",
		st.Shards, time.Since(start).Round(time.Millisecond), st.Remote, st.Local, st.Retries, st.Hedges, st.HedgeWins)
	for _, ws := range coord.WorkerStates() {
		fmt.Fprintf(stderr, "actorctl: worker %s: %s\n", ws.URL, ws.State)
	}
	return 0
}
