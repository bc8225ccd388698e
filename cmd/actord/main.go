// Command actord serves a trained predictor bank over HTTP JSON: the
// online half of the paper run as a long-lived service. It loads the bank
// at startup, reconstructs the platform the bank was trained for (its
// topology descriptor rides inside the bank), and serves:
//
//	GET  /healthz     liveness probe
//	GET  /readyz      readiness probe (503 while loading or draining)
//	GET  /v1/bank     bank metadata (topology, configs, event sets)
//	POST /v1/predict  observed rates → ranked configurations
//	POST /v1/sweep    benchmark phases → per-placement modelled responses
//	POST /v1/eval     one shard of a distributed sweep (see cmd/actorctl)
//
// Sweeps run on their request goroutines over the engine's shared phase
// memo. See docs/SERVING.md for a train → save → serve → curl walkthrough
// and the distributed-evaluation quickstart.
//
// With -recal the /v1/recal/* admin routes come alive. Recalibration runs
// only when asked: POST /v1/recal/trigger retrains a candidate warm-started
// from the live bank, validates it on a held-out split and swaps it in with
// zero downtime if it clears -recal-margin, and POST /v1/recal/rollback
// restores the previous generation instantly. GET /v1/recal/status reports
// the generation and the event log; see cmd/actorrecalctl for the admin
// CLI.
//
// Usage:
//
//	actord [-bank models/bank.json] [-addr :7690] [-recal] [-recal-margin 0]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/greenhpc/actor/pkg/actor"
)

// swapHandler lets the listener come up before the bank has loaded: until
// the real server is swapped in, /healthz answers alive and everything
// else answers 503 "loading", so orchestrators (and the dist
// coordinator's health state machine) can tell a slow start from a dead
// process.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

func loadingHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && r.Method == http.MethodGet {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"loading"}`)
	})
}

func main() {
	f := actor.BindFlags(flag.CommandLine, actor.FlagsBank)
	addr := flag.String("addr", ":7690", "listen address")
	recalOn := flag.Bool("recal", false, "enable the /v1/recal/* admin routes (trigger, rollback, status)")
	recalMargin := flag.Float64("recal-margin", 0, "relative holdout improvement a candidate must clear to be promoted")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "actord: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	var swap swapHandler
	loading := loadingHandler()
	swap.h.Store(&loading)

	// Server-side timeouts bound every connection: a client that stalls
	// mid-headers, trickles a body or never reads its response cannot wedge
	// a serving goroutine forever. Request bodies are additionally capped by
	// the handlers themselves (pkg/actor's readBody: 1 MiB, then 413).
	hs := &http.Server{
		Addr:              *addr,
		Handler:           &swap,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()

	bank, err := f.LoadBank()
	if err != nil {
		fatal(err)
	}
	// The serving platform comes from the bank itself: its topology
	// descriptor and seed rebuild the machine the models were trained on.
	eng, err := actor.ForBank(bank)
	if err != nil {
		fatal(err)
	}
	srv, err := actor.NewServer(eng)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *recalOn {
		if _, err := srv.EnableRecalibration(actor.RecalConfig{Margin: *recalMargin}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "actord: recalibration on (margin %g); POST /v1/recal/trigger retrains\n", *recalMargin)
	}

	var ready http.Handler = srv
	swap.h.Store(&ready)

	meta := bank.Meta()
	fmt.Fprintf(os.Stderr, "actord: serving %s bank (%d event sets, %d configs, topology %q) on %s\n",
		meta.Kind, len(meta.EventSets), len(meta.Configs), meta.TopologyName, *addr)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Graceful drain: readiness flips to 503 first so health-checking
		// clients stop routing here, then in-flight requests get a grace
		// window before the listener goes away.
		srv.BeginDrain()
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(shCtx)
		srv.Close()
	}()
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-drained
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "actord:", err)
	os.Exit(1)
}
