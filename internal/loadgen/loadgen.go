// Package loadgen is a deterministic open-loop load harness for the
// serving subsystem: it synthesizes a reproducible request trace shaped
// like real control-loop traffic — Poisson arrivals modulated by a
// diurnal curve, heavy-tailed bursts, a Zipf-popular rate-vector
// population, a mid-run phase change — and replays it against an actord
// endpoint over real HTTP, recording latency against each request's
// *intended* send time (open-loop, so a slow server cannot slow the
// arrival process and hide its own queueing delay — the coordinated
// omission mistake).
//
// Everything about a trace is a pure function of Config: the same seed
// yields the same request bytes in the same order at the same offsets, so
// a latency regression between two runs is attributable to the server, not
// the workload.
package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/greenhpc/actor/internal/parallel"
)

// Config describes one deterministic trace.
type Config struct {
	// Seed fixes every random draw in the trace.
	Seed int64
	// Duration is the trace's span: intended send times fall in [0, Duration).
	Duration time.Duration
	// Rate is the mean arrival rate in requests per second.
	Rate float64
	// Amp modulates Rate sinusoidally (the diurnal curve): instantaneous
	// rate is Rate·(1 + Amp·sin(2πt/Period)). 0 disables, 1 swings between
	// 0 and 2·Rate.
	Amp float64
	// Period is the diurnal period (default: Duration, one full cycle).
	Period time.Duration
	// TailAlpha is the Pareto shape of burst sizes: each arrival point
	// carries a burst of ⌈Pareto(α)⌉ back-to-back requests. Small α means
	// heavier tails; values ≤ 1 have unbounded mean. 0 disables bursts
	// (every arrival is one request).
	TailAlpha float64
	// Vectors is the size of the rate-vector population requests draw from
	// with Zipf popularity (s=1.1): a handful of vectors dominate — the
	// memo's hit case — while the tail keeps the miss path warm.
	Vectors int
	// PhaseChange relabels the second half of the trace with a different
	// phase string, forcing new memo keys mid-run like a program phase
	// transition does.
	PhaseChange bool
	// Events are the counter mnemonics of each request's rate vector
	// (typically the served bank's richest event set).
	Events []string
}

// Request is one entry of a trace: the pre-encoded /v1/predict body and
// the intended send offset from run start.
type Request struct {
	At   time.Duration
	Body []byte
}

// maxTraceRate and maxTraceArrivals bound the schedules Trace builds. Above a
// peak rate of one arrival per nanosecond the gaps round to 0 on
// time.Duration's clock and the offset stalls; past ten million expected
// arrival points (each a burst of up to 64 requests) the schedule would not
// fit in memory.
const (
	maxTraceRate     = 1e9
	maxTraceArrivals = 1e7
)

// Check reports why Trace would refuse c, or nil when it builds c's
// schedule: a non-positive Duration, a Rate that is not finite and positive,
// a non-finite Amp, a peak rate Rate·(1+|Amp|) above 1e9 per second (+Inf
// included) or more than 1e7 expected arrival points, Rate·Duration. Under
// each of these the offset would never reach Duration, or would only after
// more requests than memory holds.
func (c Config) Check() error {
	// NaN fails every comparison, so a NaN Rate or Amp fails here.
	switch peak := c.Rate * (1 + math.Abs(c.Amp)); {
	case !(c.Rate > 0 && c.Rate <= math.MaxFloat64):
		return fmt.Errorf("rate %g is not a finite positive rate", c.Rate)
	case math.IsNaN(c.Amp) || math.IsInf(c.Amp, 0):
		return fmt.Errorf("amp %g is not finite", c.Amp)
	case !(peak <= maxTraceRate):
		return fmt.Errorf("rate %g and amp %g peak at %g req/s, over the limit of 1e9", c.Rate, c.Amp, peak)
	case c.Duration <= 0:
		return fmt.Errorf("duration %v is not positive", c.Duration)
	case c.Rate*c.Duration.Seconds() > maxTraceArrivals:
		return fmt.Errorf("rate %g over duration %v is %g arrivals, over the limit of 1e7", c.Rate, c.Duration, c.Rate*c.Duration.Seconds())
	}
	return nil
}

// Trace synthesizes the full request schedule for cfg. Offsets are
// non-decreasing. It returns nil, having built nothing, for a cfg that
// Check refuses.
func Trace(cfg Config) []Request {
	if cfg.Check() != nil {
		return nil
	}
	if cfg.Period <= 0 {
		cfg.Period = cfg.Duration
	}
	if cfg.Vectors <= 0 {
		cfg.Vectors = 1
	}

	bodies := vectorBodies(cfg)
	arrivals := parallel.Rand(cfg.Seed, "loadgen/arrivals")
	zipf := rand.NewZipf(parallel.Rand(cfg.Seed, "loadgen/popularity"), 1.1, 1, uint64(cfg.Vectors-1))

	var trace []Request
	// Thinning-free non-homogeneous Poisson: advance by an exponential gap
	// scaled to the instantaneous rate at the current offset. The diurnal
	// curve varies slowly relative to the gaps, so the local-rate
	// approximation is exact enough for a load shape (this is a harness,
	// not a queueing-theory instrument).
	t := time.Duration(0)
	for t < cfg.Duration {
		inst := cfg.Rate * (1 + float64(cfg.Amp*math.Sin(2*math.Pi*float64(t)/float64(cfg.Period))))
		if inst < cfg.Rate*0.01 {
			inst = cfg.Rate * 0.01 // keep the trough from stalling the clock
		}
		gap := arrivals.ExpFloat64() / inst
		t += time.Duration(gap * float64(time.Second))
		if t >= cfg.Duration {
			break
		}
		burst := 1
		if cfg.TailAlpha > 0 {
			// Pareto(α) with x_m = 1, capped so one draw cannot swamp the run.
			// The cap comes before the conversion: a tiny α draws +Inf,
			// which int(...) would not turn into a large count.
			b := math.Ceil(math.Pow(1-float64(arrivals.Float64()), -1/cfg.TailAlpha))
			if !(b <= 64) {
				b = 64
			}
			burst = int(b)
		}
		phase := 0
		if cfg.PhaseChange && t >= cfg.Duration/2 {
			phase = 1
		}
		for i := 0; i < burst; i++ {
			v := int(zipf.Uint64())
			trace = append(trace, Request{At: t, Body: bodies[phase][v]})
		}
	}
	return trace
}

// vectorBodies pre-encodes the request population: Vectors distinct rate
// vectors × the (one or two) phase labels. Bodies are encoded by hand in
// fixed key order so the trace bytes are stable across Go versions.
func vectorBodies(cfg Config) [2][][]byte {
	phases := []string{"steady"}
	if cfg.PhaseChange {
		phases = append(phases, "shifted")
	}
	var out [2][][]byte
	for pi, phase := range phases {
		out[pi] = make([][]byte, cfg.Vectors)
		for v := 0; v < cfg.Vectors; v++ {
			rng := parallel.Rand(cfg.Seed, fmt.Sprintf("loadgen/vector/%d", v))
			var b bytes.Buffer
			fmt.Fprintf(&b, `{"phase":%q,"rates":{"IPC":%.6f`, phase, 0.2+float64(3.0*rng.Float64()))
			for _, ev := range cfg.Events {
				fmt.Fprintf(&b, `,%q:%.6f`, ev, rng.Float64()*0.1)
			}
			b.WriteString("}}")
			out[pi][v] = b.Bytes()
		}
	}
	if len(phases) == 1 {
		out[1] = out[0]
	}
	return out
}

// Result is one replay's outcome.
type Result struct {
	Sent    int           // requests dispatched
	Errors  int           // transport errors + non-200 statuses
	Elapsed time.Duration // wall time of the replay
	Lat     Hist          // latency vs intended send time, nanoseconds
}

// ReqPerSec is the achieved throughput: completed requests over elapsed
// wall time.
func (r *Result) ReqPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Sent-r.Errors) / r.Elapsed.Seconds()
}

// Run replays trace open-loop against url (the /v1/predict endpoint) with
// conns concurrent senders. The dispatcher releases each request at its
// intended offset regardless of how many are still in flight; when all
// senders are busy the request waits in queue with its latency clock
// already running — queueing delay charges to the server, never hides.
func Run(ctx context.Context, client *http.Client, url string, trace []Request, conns int) (*Result, error) {
	if conns < 1 {
		conns = 1
	}
	if len(trace) == 0 {
		return &Result{}, nil
	}
	queue := make(chan int, len(trace))
	res := &Result{}
	var mu sync.Mutex
	var wg sync.WaitGroup

	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local Hist
			errs := 0
			for i := range queue {
				ok := post(ctx, client, url, trace[i].Body)
				lat := time.Since(start) - trace[i].At
				local.Add(int64(lat))
				if !ok {
					errs++
				}
			}
			mu.Lock()
			res.Lat.Merge(&local)
			res.Errors += errs
			mu.Unlock()
		}()
	}

	dispatched := 0
dispatch:
	for i := range trace {
		if wait := trace[i].At - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				break dispatch
			}
		}
		if ctx.Err() != nil {
			break
		}
		queue <- i
		dispatched++
	}
	close(queue)
	wg.Wait()
	res.Sent = dispatched
	res.Elapsed = time.Since(start)
	if err := ctx.Err(); err != nil && dispatched == 0 {
		return res, err
	}
	return res, nil
}

func post(ctx context.Context, client *http.Client, url string, body []byte) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Check replays every distinct body of trace twice, sequentially, and
// fails unless both responses are 200 with byte-identical bodies — the
// serving determinism contract (the second delivery is a prediction-memo
// hit, so this is also the memo's byte-identity check).
func Check(ctx context.Context, client *http.Client, url string, trace []Request) error {
	seen := make(map[string][]byte)
	order := make([]string, 0, len(trace))
	for _, r := range trace {
		k := string(r.Body)
		if _, ok := seen[k]; !ok {
			seen[k] = r.Body
			order = append(order, k)
		}
	}
	sort.Strings(order)
	for _, k := range order {
		body := seen[k]
		first, err := fetch(ctx, client, url, body)
		if err != nil {
			return err
		}
		second, err := fetch(ctx, client, url, body)
		if err != nil {
			return err
		}
		if !bytes.Equal(first, second) {
			return fmt.Errorf("loadgen: repeat response diverged for body %s", body)
		}
	}
	return nil
}

func fetch(ctx context.Context, client *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: status %d for body %s: %s", resp.StatusCode, body, data)
	}
	return data, nil
}
