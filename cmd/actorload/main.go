// Command actorload is the trace-driven open-loop load harness for actord:
// it synthesizes a deterministic request trace (Poisson arrivals over a
// diurnal rate curve, heavy-tailed bursts, Zipf-popular rate vectors, an
// optional mid-run phase change — see internal/loadgen) and replays it
// against /v1/predict over real HTTP, reporting achieved throughput and
// HDR-style latency percentiles measured against each request's intended
// send time, so server-side queueing is charged to the server rather than
// silently stretching the arrival process.
//
// The same seed always produces the same trace, so two runs differ only by
// server behaviour. The reported throughput is the offered rate, not a
// capacity measurement; the repository's performance record is
// benchmarks/ (bash benchmarks/run.sh, see benchmarks/README.md).
//
// Usage:
//
//	actorload -addr http://127.0.0.1:7690 -duration 5s -rate 2000
//	actorload -addr http://127.0.0.1:7690 -duration 2s -rate 500 -check -min-rps 100
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
	"time"

	"github.com/greenhpc/actor/internal/loadgen"
	"github.com/greenhpc/actor/pkg/actor"
)

type metrics struct {
	ReqPerSec  float64 `json:"req_per_s"`
	P50us      float64 `json:"p50_us"`
	P99us      float64 `json:"p99_us"`
	P999us     float64 `json:"p999_us"`
	MaxUs      float64 `json:"max_us"`
	Sent       int     `json:"sent"`
	Errors     int     `json:"errors"`
	ElapsedSec float64 `json:"elapsed_sec"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it parses args, writes the metrics JSON
// to stdout (or -json) and progress and errors to stderr, and returns the
// exit code — 0 on success, 1 on a failed run or gate, 2 on a bad flag or a
// positional argument. Flags that give no schedule are refused before the
// target is dialled.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("actorload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:7690", "actord base URL")
	duration := fs.Duration("duration", 5*time.Second, "trace duration")
	rate := fs.Float64("rate", 2000, "mean request rate (req/s)")
	seed := fs.Int64("seed", 1, "trace seed (same seed, same trace)")
	conns := fs.Int("conns", 8, "concurrent sender connections")
	amp := fs.Float64("amp", 0.5, "diurnal rate amplitude (0 disables, 1 swings 0..2x)")
	period := fs.Duration("period", 0, "diurnal period (0: one cycle over the whole trace)")
	tail := fs.Float64("tail", 1.5, "Pareto shape for burst sizes (0 disables bursts)")
	vectors := fs.Int("vectors", 32, "distinct rate-vector population (Zipf popularity)")
	phaseChange := fs.Bool("phase-change", true, "relabel the second half of the trace with a new phase")
	jsonOut := fs.String("json", "-", "write the metrics JSON here (- for stdout)")
	check := fs.Bool("check", false, "after the run, replay each distinct request twice and fail unless responses are byte-identical")
	p99Max := fs.Duration("p99-max", 0, "fail when p99 latency exceeds this (0: no gate)")
	minRPS := fs.Float64("min-rps", 0, "fail when achieved throughput falls below this (0: no gate)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "actorload: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	// loadgen.Trace has no schedule for these: every gap would be 0 or NaN,
	// or the schedule would not fit in memory.
	if err := (loadgen.Config{Rate: *rate, Amp: *amp, Duration: *duration}).Check(); err != nil {
		fmt.Fprintf(stderr, "actorload: %v\n", err)
		return 2
	}

	if err := replay(*addr, *duration, *rate, *seed, *conns, *amp, *period, *tail,
		*vectors, *phaseChange, *jsonOut, *check, *p99Max, *minRPS, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "actorload:", err)
		return 1
	}
	return 0
}

// replay synthesizes the trace, replays it against addr and applies the
// gates.
func replay(addr string, duration time.Duration, rate float64, seed int64, conns int,
	amp float64, period time.Duration, tail float64, vectors int, phaseChange bool,
	jsonOut string, check bool, p99Max time.Duration, minRPS float64, stdout, stderr io.Writer) error {
	ctx := context.Background()
	events, err := fetchEvents(ctx, addr)
	if err != nil {
		return err
	}

	cfg := loadgen.Config{
		Seed:        seed,
		Duration:    duration,
		Rate:        rate,
		Amp:         amp,
		Period:      period,
		TailAlpha:   tail,
		Vectors:     vectors,
		PhaseChange: phaseChange,
		Events:      events,
	}
	trace := loadgen.Trace(cfg)
	fmt.Fprintf(stderr, "trace: %d requests over %v (seed %d, %d vectors)\n",
		len(trace), duration, seed, vectors)

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     0,
	}}
	url := addr + "/v1/predict"
	res, err := loadgen.Run(ctx, client, url, trace, conns)
	if err != nil {
		return err
	}

	m := metrics{
		ReqPerSec:  res.ReqPerSec(),
		P50us:      float64(res.Lat.Quantile(0.50)) / 1e3,
		P99us:      float64(res.Lat.Quantile(0.99)) / 1e3,
		P999us:     float64(res.Lat.Quantile(0.999)) / 1e3,
		MaxUs:      float64(res.Lat.Max()) / 1e3,
		Sent:       res.Sent,
		Errors:     res.Errors,
		ElapsedSec: res.Elapsed.Seconds(),
	}
	out, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if jsonOut == "-" || jsonOut == "" {
		fmt.Fprintln(stdout, string(out))
	} else if err := os.WriteFile(jsonOut, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%.0f req/s, p50 %.0fus p99 %.0fus p999 %.0fus max %.0fus, %d/%d errors\n",
		m.ReqPerSec, m.P50us, m.P99us, m.P999us, m.MaxUs, m.Errors, m.Sent)

	if check {
		fmt.Fprintln(stderr, "determinism check: replaying each distinct request twice...")
		if err := loadgen.Check(ctx, client, url, trace); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "determinism check: responses byte-identical")
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", res.Errors, res.Sent)
	}
	if p99Max > 0 && m.P99us > float64(p99Max)/1e3 {
		return fmt.Errorf("p99 %.0fus exceeds gate %v", m.P99us, p99Max)
	}
	if minRPS > 0 && m.ReqPerSec < minRPS {
		return fmt.Errorf("throughput %.0f req/s below gate %.0f", m.ReqPerSec, minRPS)
	}
	return nil
}

// fetchEvents asks the target's /v1/bank for the richest event set, so the
// generated rate vectors carry exactly the mnemonics the bank consumes.
func fetchEvents(ctx context.Context, addr string) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/bank", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fetching %s/v1/bank: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/v1/bank: status %d", addr, resp.StatusCode)
	}
	var info actor.BankInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	if len(info.Meta.EventSets) == 0 {
		return nil, fmt.Errorf("bank reports no event sets")
	}
	return info.Meta.EventSets[0], nil
}
