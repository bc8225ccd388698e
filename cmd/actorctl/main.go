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
	"flag"
	"fmt"
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
	f := actor.BindFlags(flag.CommandLine, actor.FlagsBank)
	workers := flag.String("workers", "", "comma-separated actord base URLs (empty = in-process evaluation)")
	local := flag.Bool("local", false, "force in-process evaluation (ignore -workers)")
	timeout := flag.Duration("timeout", 15*time.Second, "per-attempt request timeout")
	retries := flag.Int("retries", 3, "times a failed shard is reassigned before in-process fallback")
	hedge := flag.Duration("hedge", 250*time.Millisecond, "minimum straggler delay before a shard is hedged")
	shardUnits := flag.Int("shard-units", 1, "(benchmark, phase) units per shard")
	out := flag.String("out", "", "write merged sweeps to this file (default stdout)")
	quiet := flag.Bool("q", false, "suppress per-event warnings (summary still printed)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "actorctl: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	bank, err := f.LoadBank()
	if err != nil {
		fatal(err)
	}
	eng, err := actor.ForBank(bank)
	if err != nil {
		fatal(err)
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
		fatal(err)
	}
	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
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
		fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		w, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer w.Close()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(sweeps); err != nil {
		fatal(err)
	}

	st := coord.Stats()
	fmt.Fprintf(os.Stderr, "actorctl: %d shards in %s — %d remote, %d local, %d retries, %d hedges (%d won)\n",
		st.Shards, time.Since(start).Round(time.Millisecond), st.Remote, st.Local, st.Retries, st.Hedges, st.HedgeWins)
	for _, ws := range coord.WorkerStates() {
		fmt.Fprintf(os.Stderr, "actorctl: worker %s: %s\n", ws.URL, ws.State)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "actorctl:", err)
	os.Exit(1)
}
