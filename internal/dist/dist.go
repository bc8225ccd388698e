// Package dist is the fault-tolerant distributed sweep coordinator: it
// partitions an engine's canonical sweep workload into shards, fans the
// shards out to actord workers over /v1/eval, and merges the results in
// canonical shard order so a distributed run is byte-identical to the
// in-process run regardless of worker count, arrival order, retries,
// hedges or duplicate deliveries.
//
// Failure is a first-class input. Every request runs under a per-attempt
// timeout; a failed attempt backs off (exponential + seeded jitter, the
// internal/parallel seed-derivation discipline) and reassigns the shard to
// a different worker; stragglers are hedged — the slowest in-flight shard
// is duplicated on a second worker after a p99-derived delay, first
// response wins, the duplicate is discarded by shard fingerprint. Worker
// health follows a joining → ready → suspect → dead state machine driven
// by /readyz probes and consecutive-failure counts. The run completes with
// partial workers, and with zero live workers every remaining shard falls
// back to in-process evaluation with a warning.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/greenhpc/actor/internal/parallel"
	"github.com/greenhpc/actor/pkg/actor"
)

// Options configure a Coordinator. The zero value of every field has a
// production-sane default.
type Options struct {
	// Workers are the base URLs of the actord workers ("http://host:7690").
	// Empty means no distribution: the run evaluates in-process.
	Workers []string
	// Client issues the HTTP requests. Wrap its Transport with
	// faultinject.New to test failure schedules. Defaults to a private
	// client (so fault injection never leaks into other subsystems).
	Client *http.Client
	// Timeout bounds each attempt (default 15s).
	Timeout time.Duration
	// Retries is how many times a failed shard is reassigned before it
	// falls back to in-process evaluation (default 3).
	Retries int
	// HedgeFloor is the minimum straggler delay before a hedge fires
	// (default 250ms). Once ≥5 shards have completed, the delay becomes
	// max(HedgeFloor, 2×p99 of completed-shard latencies).
	HedgeFloor time.Duration
	// ShardUnits is how many (benchmark, phase) units each shard carries
	// (default 1 — finest recovery granularity).
	ShardUnits int
	// Logf receives warnings (degradation, fallbacks); nil discards them.
	Logf func(format string, args ...any)
}

// The coordinator's fixed scheduling constants.
const (
	// backoffBase and backoffMax shape the exponential backoff between a
	// shard's attempts. The jitter stream is derived per shard from the
	// engine's platform seed with parallel.SeedFor, so schedules are
	// reproducible; the seed never influences results, only scheduling.
	backoffBase = 25 * time.Millisecond
	backoffMax  = time.Second
	// deadAfter is the consecutive-failure count that moves a worker from
	// suspect to dead.
	deadAfter = 3
)

// Stats counts what the fault-tolerance machinery actually did during a
// Run; read it after Run returns.
type Stats struct {
	// Shards is the partition size of the last Run.
	Shards int
	// Remote counts shards answered by a worker; Local counts shards that
	// fell back to in-process evaluation.
	Remote, Local int
	// Retries counts failed attempts that were reassigned; Hedges counts
	// straggler duplicates launched; HedgeWins counts hedges whose
	// response arrived first.
	Retries, Hedges, HedgeWins int
}

// Coordinator fans a sweep out to workers and merges the results
// deterministically. Create with New; a Coordinator is good for one Run at
// a time.
type Coordinator struct {
	eng     *actor.Engine
	opts    Options
	client  *http.Client
	workers []*worker

	lat latencies

	remote, local, retries, hedges, hedgeWins atomic.Int64
}

// New builds a Coordinator over the engine whose platform identity
// (topology descriptor + seed) every worker must match. The engine is also
// the in-process fallback evaluator, so a Coordinator always completes its
// run — with no workers at all it degrades to a plain local sweep.
func New(eng *actor.Engine, opts Options) *Coordinator {
	if opts.Timeout <= 0 {
		opts.Timeout = 15 * time.Second
	}
	if opts.Retries <= 0 {
		opts.Retries = 3
	}
	if opts.HedgeFloor <= 0 {
		opts.HedgeFloor = 250 * time.Millisecond
	}
	if opts.ShardUnits <= 0 {
		opts.ShardUnits = 1
	}
	c := &Coordinator{eng: eng, opts: opts, client: opts.Client}
	if c.client == nil {
		c.client = &http.Client{}
	}
	for _, url := range opts.Workers {
		c.workers = append(c.workers, &worker{url: url})
	}
	return c
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Stats returns the counters of the completed Run.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Shards:    int(c.remote.Load() + c.local.Load()),
		Remote:    int(c.remote.Load()),
		Local:     int(c.local.Load()),
		Retries:   int(c.retries.Load()),
		Hedges:    int(c.hedges.Load()),
		HedgeWins: int(c.hedgeWins.Load()),
	}
}

// Partition splits the unit list into shards of at most size units each,
// preserving canonical order: shard i covers units[i*size : (i+1)*size].
func Partition(units []actor.SweepRequest, size int) [][]actor.SweepRequest {
	if size <= 0 {
		size = 1
	}
	var shards [][]actor.SweepRequest
	for start := 0; start < len(units); start += size {
		end := start + size
		if end > len(units) {
			end = len(units)
		}
		shards = append(shards, units[start:end])
	}
	return shards
}

// Run evaluates the engine's full canonical workload (Engine.Workload)
// across the configured workers and returns the merged per-phase sweeps in
// canonical order — byte-identical to evaluating every unit in-process,
// whatever the fault schedule. Run returns an error only when ctx is
// cancelled or the in-process fallback itself fails.
func (c *Coordinator) Run(ctx context.Context) ([]actor.PhaseSweep, error) {
	units := c.eng.Workload()
	shards := Partition(units, c.opts.ShardUnits)
	if len(c.workers) == 0 {
		c.logf("dist: no workers configured; evaluating all %d shards in-process", len(shards))
		return c.runAllLocal(ctx, shards)
	}
	if ready := c.probeAll(ctx); ready == 0 {
		c.logf("dist: none of the %d workers is ready; continuing — shards will retry and fall back in-process", len(c.workers))
	}

	// Index-addressed result slots (the parallel package's determinism
	// discipline): merge order is fixed by shard index, never by arrival.
	results := make([][]actor.PhaseSweep, len(shards))
	errs := make([]error, len(shards))
	// At most max(4, 2 per worker) shards are outstanding at once.
	sem := make(chan struct{}, max(4, 2*len(c.workers)))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			results[i], errs[i] = c.runShard(ctx, i, shards[i])
		}(i)
	}
	wg.Wait()
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	var out []actor.PhaseSweep
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}

// runAllLocal is total degradation: every shard evaluated in-process.
func (c *Coordinator) runAllLocal(ctx context.Context, shards [][]actor.SweepRequest) ([]actor.PhaseSweep, error) {
	var out []actor.PhaseSweep
	for i, units := range shards {
		sweeps, err := c.evalLocal(ctx, units)
		if err != nil {
			return nil, fmt.Errorf("dist: local evaluation of shard %d: %w", i, err)
		}
		out = append(out, sweeps...)
	}
	return out, nil
}

func (c *Coordinator) evalLocal(ctx context.Context, units []actor.SweepRequest) ([]actor.PhaseSweep, error) {
	var out []actor.PhaseSweep
	for _, u := range units {
		sweeps, err := c.eng.Sweep(ctx, u)
		if err != nil {
			return nil, err
		}
		out = append(out, sweeps...)
	}
	c.local.Add(1)
	return out, nil
}

// runShard drives one shard to completion: assign → (hedge) → retry on
// another worker with backoff → in-process fallback. It only errors when
// ctx is cancelled or the local fallback fails.
func (c *Coordinator) runShard(ctx context.Context, idx int, units []actor.SweepRequest) ([]actor.PhaseSweep, error) {
	req := &actor.EvalRequest{
		Topology:    c.eng.TopologyDesc(),
		Seed:        c.eng.Seed(),
		BankVersion: actor.BankVersion,
		Units:       units,
	}
	req.Shard = actor.ShardSpec{Index: idx, Total: 0, Fingerprint: req.Fingerprint()}
	rng := parallel.Rand(c.eng.Seed(), fmt.Sprintf("dist-shard-%d", idx))
	var last *worker
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := c.pickWorker(ctx, last)
		if w == nil {
			break // no live workers left: fall through to local
		}
		sweeps, err := c.callHedged(ctx, w, req)
		if err == nil {
			c.remote.Add(1)
			return sweeps, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		c.retries.Add(1)
		c.logf("dist: shard %d attempt %d on %s failed: %v", idx, attempt, w.url, err)
		last = w
		select {
		case <-time.After(backoffDelay(rng, attempt)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c.logf("dist: shard %d exhausted its workers; degrading to in-process evaluation", idx)
	return c.evalLocal(ctx, units)
}

// backoffDelay is the wait after a shard's failed attempt: exponential
// backoff with full jitter from the shard's own seeded stream, so retry
// schedules are reproducible and never synchronized across shards. The
// shift is capped because backoffBase<<39 wraps negative; 25 ms << 6
// already exceeds backoffMax.
func backoffDelay(rng *rand.Rand, attempt int) time.Duration {
	d := min(backoffBase<<min(attempt, 6), backoffMax)
	return time.Duration(rng.Int63n(int64(d) + 1))
}

// pickWorker returns the least-loaded Ready worker, excluding the one that
// just failed the shard when any alternative exists. When no worker is
// Ready it re-probes every Joining/Suspect worker once and tries again;
// nil means the run should degrade.
func (c *Coordinator) pickWorker(ctx context.Context, exclude *worker) *worker {
	for probes := 0; ; probes++ {
		var best *worker
		bestLoad := 0
		var fallback *worker // the excluded worker, if it is the only Ready one
		for _, w := range c.workers {
			st, load := w.loadSnapshot()
			if st != Ready {
				continue
			}
			if w == exclude {
				fallback = w
				continue
			}
			if best == nil || load < bestLoad {
				best, bestLoad = w, load
			}
		}
		if best == nil {
			best = fallback
		}
		if best != nil {
			return best
		}
		if probes > 0 || c.probeAll(ctx) == 0 {
			return nil
		}
	}
}

// callHedged issues the shard to w, and — if the response stays in flight
// past the straggler delay — duplicates it on a second worker. The first
// successful response wins; a response whose fingerprint does not match
// the shard is discarded as corrupt. Worker health is updated per outcome.
func (c *Coordinator) callHedged(ctx context.Context, w *worker, req *actor.EvalRequest) ([]actor.PhaseSweep, error) {
	type outcome struct {
		w      *worker
		sweeps []actor.PhaseSweep
		err    error
		took   time.Duration
	}
	resc := make(chan outcome, 2) // buffered: a losing call never blocks
	call := func(cw *worker) {
		cw.acquire()
		defer cw.release()
		start := time.Now()
		sweeps, err := c.callEval(ctx, cw, req)
		resc <- outcome{w: cw, sweeps: sweeps, err: err, took: time.Since(start)}
	}
	go call(w)
	inflight := 1
	var hedgeWorker *worker
	hedgeTimer := time.NewTimer(c.hedgeDelay())
	defer hedgeTimer.Stop()
	var firstErr error
	for {
		select {
		case o := <-resc:
			inflight--
			if o.err == nil {
				o.w.markSuccess()
				c.lat.add(o.took)
				if o.w == hedgeWorker {
					c.hedgeWins.Add(1)
				}
				// A slower duplicate response is simply never read: the
				// channel is buffered and the shard is keyed by fingerprint,
				// so re-delivery cannot double-count.
				return o.sweeps, nil
			}
			if ctx.Err() == nil { // a cancelled run is not the worker's fault
				o.w.markFailure()
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if inflight == 0 {
				return nil, firstErr
			}
		case <-hedgeTimer.C:
			if hedgeWorker != nil {
				continue
			}
			if w2 := c.pickWorker(ctx, w); w2 != nil && w2 != w {
				hedgeWorker = w2
				inflight++
				c.hedges.Add(1)
				go call(w2)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// hedgeDelay derives the straggler threshold: 2× the p99 of completed
// shard latencies once enough samples exist, floored at HedgeFloor.
func (c *Coordinator) hedgeDelay() time.Duration {
	if p99, ok := c.lat.p99(); ok {
		if d := 2 * p99; d > c.opts.HedgeFloor {
			return d
		}
	}
	return c.opts.HedgeFloor
}

// maxResponseBody bounds how much of a worker reply the coordinator will
// buffer (a full-suite shard response is well under 1 MiB).
const maxResponseBody = 64 << 20

// callEval is one HTTP attempt: POST the shard, read the body fully,
// verify status, shape and fingerprint. Any mismatch — transport error,
// non-200, truncated or corrupt JSON, wrong fingerprint, wrong row count —
// is a retryable failure.
func (c *Coordinator) callEval(ctx context.Context, w *worker, req *actor.EvalRequest) ([]actor.PhaseSweep, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	rctx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(rctx, http.MethodPost, w.url+"/v1/eval", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBody))
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := string(data)
		if len(msg) > 200 {
			msg = msg[:200] + "..."
		}
		return nil, fmt.Errorf("worker answered %s: %s", resp.Status, msg)
	}
	var er actor.EvalResponse
	if err := json.Unmarshal(data, &er); err != nil {
		return nil, fmt.Errorf("corrupt response body: %w", err)
	}
	if er.Fingerprint != req.Shard.Fingerprint {
		return nil, fmt.Errorf("response fingerprint %q does not match shard %q", er.Fingerprint, req.Shard.Fingerprint)
	}
	if len(er.Sweeps) != len(req.Units) {
		return nil, fmt.Errorf("response has %d sweeps for %d units", len(er.Sweeps), len(req.Units))
	}
	return er.Sweeps, nil
}

// latencies tracks completed-shard round-trip times for the p99-derived
// hedge delay.
type latencies struct {
	mu      sync.Mutex
	samples []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.samples = append(l.samples, d)
	l.mu.Unlock()
}

// p99 returns the 99th-percentile sample; ok is false until ≥5 samples
// exist (too few to call anything a straggler).
func (l *latencies) p99() (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) < 5 {
		return 0, false
	}
	sorted := make([]time.Duration, len(l.samples))
	copy(sorted, l.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)-1)*99/100], true
}
