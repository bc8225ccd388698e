package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/greenhpc/actor/internal/loadgen"
	"github.com/greenhpc/actor/internal/parallel"
	"github.com/greenhpc/actor/pkg/actor"
)

// Routes of the mixed workload, also the span names of the traced run.
const (
	routePredict = iota
	routeSweep
	routeEval
	numRoutes
)

var routePaths = [numRoutes]string{"/v1/predict", "/v1/sweep", "/v1/eval"}

// sampleEvery is the correctness sampling stride: one response in this many
// is kept and checked after the window.
const sampleEvery = 256

// serveEnv is one in-process actord: the same bank load path, handler and
// four timeouts as cmd/actord, on a loopback listener, with the generator's
// connections attached.
type serveEnv struct {
	kind string
	sz   sizes

	eng    *actor.Engine
	srv    *actor.Server
	rec    *actor.Recalibrator // serve_mixed only
	hs     *http.Server
	hsDone chan struct{}
	addr   string
	tracer *srvTracer // nil in an untraced run

	gens []*reqGen

	trainMS, decodeMS float64

	// serve_mixed trigger bookkeeping.
	ops        atomic.Int64
	triggers   sync.WaitGroup // triggers signalled and not yet finished
	trigCh     chan struct{}
	trigDone   chan struct{}
	trigMu     sync.Mutex
	triggerMS  []float64
	promotions int
}

// connCount is the generator's concurrency: ACTOR runtimes block at a phase
// boundary until the reply arrives, so each connection is one closed loop.
func connCount() int { return min(runtime.NumCPU(), 4) }

func newServeEnv(kind string, seed int64, sz sizes, traced bool) (*serveEnv, error) {
	e := &serveEnv{kind: kind, sz: sz}
	ctx := context.Background()

	// Train, encode and decode: actord only ever serves a bank that came
	// through the serialised form, so the served predictors are the decoded
	// ones and set-up pays what an actor-train | actord hand-over pays.
	t0 := time.Now()
	trainer, err := actor.New(actor.WithFast())
	if err != nil {
		return nil, err
	}
	trained, err := trainer.Train(ctx)
	if err != nil {
		return nil, err
	}
	e.trainMS = msSince(t0)
	data, err := trained.Encode()
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	bank, err := actor.DecodeBank(data)
	if err != nil {
		return nil, err
	}
	e.decodeMS = msSince(t0)
	if e.eng, err = actor.ForBank(bank); err != nil {
		return nil, err
	}
	if e.srv, err = actor.NewServer(e.eng); err != nil {
		return nil, err
	}
	if kind == "serve_mixed" {
		if e.rec, err = e.srv.EnableRecalibration(actor.RecalConfig{}); err != nil {
			e.srv.Close()
			return nil, err
		}
		e.trigCh = make(chan struct{}, 1)
		e.trigDone = make(chan struct{})
		go e.triggerLoop()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.addr = ln.Addr().String()
	var handler http.Handler = e.srv
	e.hs = &http.Server{
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	if traced {
		e.tracer = newSrvTracer(e.srv)
		handler = e.tracer
		e.hs.ConnContext = e.tracer.connContext
	}
	e.hs.Handler = handler
	e.hsDone = make(chan struct{})
	go func() {
		defer close(e.hsDone)
		_ = e.hs.Serve(ln) // returns ErrServerClosed on close
	}()

	if err := e.connect(seed); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the generator's connections, the listener, the handler's
// dispatcher and the trigger loop, and waits for each.
func (e *serveEnv) close() {
	for _, g := range e.gens {
		g.cl.close()
	}
	if e.hs != nil {
		_ = e.hs.Close()
		<-e.hsDone
	}
	if e.trigCh != nil {
		close(e.trigCh)
		<-e.trigDone
	}
	e.srv.Close()
}

// triggerLoop fires the in-run retrains of serve_mixed off the request path,
// as actord's control loop does.
func (e *serveEnv) triggerLoop() {
	defer close(e.trigDone)
	for range e.trigCh {
		t0 := time.Now()
		out, err := e.rec.Trigger(context.Background())
		e.trigMu.Lock()
		if err == nil {
			e.triggerMS = append(e.triggerMS, msSince(t0))
			if out.Outcome == "promoted" {
				e.promotions++
			}
		}
		e.trigMu.Unlock()
		e.triggers.Done()
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// splitmix64 is the generator's per-connection PRNG: one add and three
// multiplies per draw, no allocation, state derived from the run seed.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// reqGen produces one connection's request stream and keeps its log.
type reqGen struct {
	cl  *client
	rng splitmix64
	mix bool
	env *serveEnv

	hot    [][]byte // frames of the distinct hot bodies
	hotSeq []uint16 // Zipf-ordered indices into hot, walked cyclically
	hotPos int

	cold       []byte // one frame, patched in place
	coldDigits []int  // offsets of the patchable digits

	sweep [][]byte
	eval  [][]byte

	seenHot  []bool // hot bodies already sent (for repeat_share)
	repeats  int    // predict bodies sent before
	predicts int

	// Correctness samples: request and response bytes copied into a
	// preallocated arena, so sampling allocates nothing.
	arena []byte
	caps  []capture
}

type capture struct {
	route            uint8
	reqOff, reqLen   int
	respOff, respLen int
}

// connect builds the request population from the seed and opens the
// generator's connections.
func (e *serveEnv) connect(seed int64) error {
	events := e.srv.Bank().Meta().EventSets[0]
	n := connCount()

	var hot [][]byte
	var hotSeq []uint16
	if e.kind != "serve_cold" {
		// The internal/loadgen population and its Zipf(1.1) draw order: a
		// one-second trace at 64k req/s, first half labelled "steady",
		// second half "shifted".
		tr := loadgen.Trace(loadgen.Config{
			Seed: seed, Duration: time.Second, Rate: 1 << 16,
			Vectors: 32, PhaseChange: true, Events: events,
		})
		index := map[string]uint16{}
		for _, r := range tr {
			id, ok := index[string(r.Body)]
			if !ok {
				id = uint16(len(hot))
				index[string(r.Body)] = id
				hot = append(hot, frame("POST", routePaths[routePredict], r.Body))
			}
			hotSeq = append(hotSeq, id)
		}
		if len(hotSeq) == 0 {
			return errors.New("actorbench: empty hot trace")
		}
	}

	var sweep, eval [][]byte
	if e.kind == "serve_mixed" {
		units := e.eng.Workload()
		for _, u := range units {
			body, err := json.Marshal(u)
			if err != nil {
				return err
			}
			sweep = append(sweep, frame("POST", routePaths[routeSweep], body))
		}
		const shards, perShard = 16, 4
		meta := e.srv.Bank().Meta()
		for i := 0; i < shards; i++ {
			var us []actor.SweepRequest
			for j := 0; j < perShard; j++ {
				us = append(us, units[(i*perShard+j)%len(units)])
			}
			req := actor.EvalRequest{
				Topology: e.eng.TopologyDesc(), Seed: meta.Seed, BankVersion: actor.BankVersion,
				Shard: actor.ShardSpec{Index: i, Total: shards, Fingerprint: actor.ShardFingerprint(e.eng.TopologyDesc(), meta.Seed, us)},
				Units: us,
			}
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			eval = append(eval, frame("POST", routePaths[routeEval], body))
		}
	}

	for k := 0; k < n; k++ {
		cl, err := dial(e.addr)
		if err != nil {
			return err
		}
		g := &reqGen{
			cl:  cl,
			env: e,
			rng: splitmix64(parallel.SeedFor(seed, fmt.Sprintf("%s/conn/%d", e.kind, k))),
			mix: e.kind == "serve_mixed",
			hot: hot, hotSeq: hotSeq,
			hotPos:  k * len(hotSeq) / n,
			seenHot: make([]bool, len(hot)),
			sweep:   sweep, eval: eval,
			arena: make([]byte, 0, 4<<20),
			caps:  make([]capture, 0, 8192),
		}
		if e.kind != "serve_hot" {
			g.cold, g.coldDigits = coldFrame(events)
		}
		e.gens = append(e.gens, g)
	}
	return nil
}

// coldFrame builds the fixed-width predict frame whose digits patchCold
// rewrites: IPC in [1,2), every event rate in [0,0.1), like the loadgen
// population's ranges.
func coldFrame(events []string) (fr []byte, digits []int) {
	var b bytes.Buffer
	var rel []int
	b.WriteString(`{"phase":"cold","rates":{"IPC":1.`)
	for i := 0; i < 6; i++ {
		rel = append(rel, b.Len())
		b.WriteByte('0')
	}
	for _, ev := range events {
		fmt.Fprintf(&b, `,%q:0.0`, ev)
		for i := 0; i < 5; i++ {
			rel = append(rel, b.Len())
			b.WriteByte('0')
		}
	}
	b.WriteString("}}")
	fr = frame("POST", routePaths[routePredict], b.Bytes())
	for _, r := range rel {
		digits = append(digits, len(fr)-b.Len()+r)
	}
	return fr, digits
}

// patchCold writes fresh digits: 71 random decimal digits per body, so two
// of a run's bodies coincide with probability ~1e-60.
func (g *reqGen) patchCold() {
	var r uint64
	for i, off := range g.coldDigits {
		if i%16 == 0 {
			r = g.rng.next()
		}
		g.cold[off] = '0' + byte(r%10)
		r /= 10
	}
}

// next picks the connection's next request.
func (g *reqGen) next() (fr []byte, route uint8) {
	kind := 0 // 0 hot, 1 cold, 2 sweep, 3 eval
	switch {
	case g.mix:
		switch u := g.rng.next() % 100; {
		case u < 70:
		case u < 80:
			kind = 1
		case u < 95:
			kind = 2
		default:
			kind = 3
		}
	case g.hot == nil:
		kind = 1
	}
	switch kind {
	case 0:
		id := g.hotSeq[g.hotPos]
		if g.hotPos++; g.hotPos == len(g.hotSeq) {
			g.hotPos = 0
		}
		g.predicts++
		if g.seenHot[id] {
			g.repeats++
		}
		g.seenHot[id] = true
		return g.hot[id], routePredict
	case 1:
		g.patchCold()
		g.predicts++
		return g.cold, routePredict
	case 2:
		return g.sweep[g.rng.next()%uint64(len(g.sweep))], routeSweep
	default:
		return g.eval[g.rng.next()%uint64(len(g.eval))], routeEval
	}
}

// driveResult is one connection's share of a window.
type driveResult struct {
	attempted, failed int
	log               *latLog
	starts            []int64    // per op start, ns since window start, traced runs only
	trace             *connTrace // the connection's server-side spans, traced runs only
	err               error
}

// drive runs one connection's closed loop until maxOps requests were sent
// or the deadline passed. log may be nil (warm-up).
func (g *reqGen) drive(maxOps int, deadline time.Time, log *latLog, traced bool) driveResult {
	res := driveResult{log: log}
	if traced {
		res.starts = make([]int64, 0, cap(log.ns))
	}
	every := g.env.sz.triggerEvery
	for n := 0; n < maxOps; n++ {
		fr, route := g.next()
		t0 := time.Now()
		status, body, err := g.cl.roundTrip(fr)
		t1 := time.Now()
		res.attempted++
		if err != nil {
			res.failed++
			res.err = err
			return res // the connection is gone
		}
		if status != http.StatusOK {
			res.failed++
		}
		if log != nil {
			log.add(t1.Sub(t0), t1)
			if traced {
				res.starts = append(res.starts, int64(t0.Sub(log.start)))
			}
			if n%sampleEvery == 0 {
				g.capture(route, frameBody(fr), body)
			}
			if g.mix && g.env.ops.Add(1)%int64(every) == 0 {
				g.env.triggers.Add(1)
				select {
				case g.env.trigCh <- struct{}{}:
				default: // the previous retrain is still running
					g.env.triggers.Done()
				}
			}
		}
		if !t1.Before(deadline) {
			break
		}
	}
	return res
}

func (g *reqGen) capture(route uint8, req, resp []byte) {
	if len(g.caps) == cap(g.caps) || len(g.arena)+len(req)+len(resp) > cap(g.arena) {
		return
	}
	c := capture{route: route, reqOff: len(g.arena), reqLen: len(req)}
	g.arena = append(g.arena, req...)
	c.respOff, c.respLen = len(g.arena), len(resp)
	g.arena = append(g.arena, resp...)
	g.caps = append(g.caps, c)
}

// windowResult is one timed window over all connections.
type windowResult struct {
	conns             []driveResult
	attempted, failed int
	elapsed           time.Duration
	mallocs, bytes    uint64 // runtime.MemStats deltas over the window
	err               error
}

// add accumulates another window's totals (not its per-connection logs).
func (w *windowResult) add(o *windowResult) {
	w.attempted += o.attempted
	w.failed += o.failed
	w.elapsed += o.elapsed
	w.mallocs += o.mallocs
	w.bytes += o.bytes
}

func (w *windowResult) logs() []*latLog {
	out := make([]*latLog, len(w.conns))
	for i := range w.conns {
		out[i] = w.conns[i].log
	}
	return out
}

// warmup sends the set-up's untimed requests: it fills the memo (and evicts
// from it on serve_cold), the sweep memo and the eval cache, and lets the
// runtime grow its heap and its goroutine stacks. What the generators
// counted and sampled so far is dropped afterwards.
func (e *serveEnv) warmup() error {
	defer func() {
		for _, g := range e.gens {
			g.predicts, g.repeats = 0, 0
			g.arena, g.caps = g.arena[:0], g.caps[:0]
		}
	}()
	var wg sync.WaitGroup
	errs := make([]error, len(e.gens))
	per := e.sz.warmOps / len(e.gens)
	far := time.Now().Add(time.Hour)
	for k, g := range e.gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := g.drive(per, far, nil, false)
			if r.failed > 0 {
				errs[k] = fmt.Errorf("warm-up: %d of %d requests failed: %v", r.failed, r.attempted, r.err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// window runs every connection's closed loop for d and returns what they
// logged. With traced set, the server-side spans of each connection are
// switched on for exactly the ops of this window.
func (e *serveEnv) window(d time.Duration, traced bool) *windowResult {
	// Sized for 150k req/s so the logs never grow inside the window; what
	// stays unused costs address space only.
	capHint := int(d.Seconds()*150_000)/len(e.gens) + 1024

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(d)
	res := &windowResult{conns: make([]driveResult, len(e.gens))}
	var wg sync.WaitGroup
	for k, g := range e.gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ct *connTrace
			if traced {
				ct = e.tracer.arm(g.cl.c.LocalAddr().String(), start, capHint)
			}
			res.conns[k] = g.drive(1<<62, deadline, newLatLog(start, time.Second, capHint), traced)
			if ct != nil {
				ct.on.Store(false)
				res.conns[k].trace = ct
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	res.mallocs, res.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	for _, c := range res.conns {
		res.attempted += c.attempted
		res.failed += c.failed
		if c.err != nil {
			res.err = c.err
		}
	}
	return res
}

// verify checks the window's sampled responses and returns how many were
// wrong, with the first reason.
//
// serve_hot and serve_cold replay each sampled body through ServeHTTP in
// memory and demand the same bytes the socket delivered. serve_mixed swaps
// banks mid-run, so a replay may legitimately differ; there every sampled
// body must parse and name configurations of the engine's space, and the
// served bank's generation must equal the number of promoted triggers.
func (e *serveEnv) verify() (wrong int, first error) {
	e.triggers.Wait() // a retrain a late trigger started must be counted whole
	fail := func(err error) {
		wrong++
		if first == nil {
			first = err
		}
	}
	known := map[string]bool{}
	for _, c := range e.eng.ConfigNames() {
		known[c] = true
	}
	for _, g := range e.gens {
		for _, c := range g.caps {
			req := g.arena[c.reqOff : c.reqOff+c.reqLen]
			resp := g.arena[c.respOff : c.respOff+c.respLen]
			if e.kind != "serve_mixed" {
				rr := httptest.NewRecorder()
				hr := httptest.NewRequest(http.MethodPost, routePaths[c.route], bytes.NewReader(req))
				e.srv.ServeHTTP(rr, hr)
				if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), resp) {
					fail(fmt.Errorf("served bytes differ from in-memory replay for body %s", req))
				}
				continue
			}
			if err := checkParsed(c.route, resp, known); err != nil {
				fail(err)
			}
		}
	}
	if e.kind == "serve_mixed" {
		e.trigMu.Lock()
		promoted := e.promotions
		e.trigMu.Unlock()
		gen, err := servedGeneration(e.addr)
		if err != nil {
			fail(err)
		} else if gen != promoted {
			fail(fmt.Errorf("/v1/bank generation %d, but %d triggers promoted", gen, promoted))
		}
	}
	return wrong, first
}

// checkParsed decodes one sampled response of the mixed workload and checks
// every configuration it names.
func checkParsed(route uint8, resp []byte, known map[string]bool) error {
	var names []string
	switch route {
	case routePredict:
		var pr actor.PredictResponse
		if err := json.Unmarshal(resp, &pr); err != nil {
			return fmt.Errorf("predict response does not parse: %w", err)
		}
		names = append(names, pr.Best)
		for _, p := range pr.Predictions {
			names = append(names, p.Config)
		}
	case routeSweep:
		var sr actor.SweepResponse
		if err := json.Unmarshal(resp, &sr); err != nil {
			return fmt.Errorf("sweep response does not parse: %w", err)
		}
		names = sweepConfigs(sr.Sweeps)
	case routeEval:
		var er actor.EvalResponse
		if err := json.Unmarshal(resp, &er); err != nil {
			return fmt.Errorf("eval response does not parse: %w", err)
		}
		names = sweepConfigs(er.Sweeps)
	}
	if len(names) == 0 {
		return fmt.Errorf("%s response names no configuration", routePaths[route])
	}
	for _, n := range names {
		if !known[n] {
			return fmt.Errorf("%s response names unknown configuration %q", routePaths[route], n)
		}
	}
	return nil
}

func sweepConfigs(sweeps []actor.PhaseSweep) []string {
	var names []string
	for _, s := range sweeps {
		for _, r := range s.Rows {
			names = append(names, r.Config)
		}
	}
	return names
}

// servedGeneration reads meta.generation from GET /v1/bank.
func servedGeneration(addr string) (int, error) {
	resp, err := http.Get("http://" + addr + "/v1/bank")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var info actor.BankInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return 0, fmt.Errorf("/v1/bank does not parse: %w", err)
	}
	return info.Meta.Generation, nil
}

// repeatShare is actor.predmemo.repeat_share: the share of the measured
// predict bodies that an earlier request (warm-up included) already carried.
// It is computed from what the generator sent, not read from the memo: the
// hot population (64 bodies) fits the memo's 2048 entries, cold bodies never
// repeat.
func (e *serveEnv) repeatShare() float64 {
	var rep, all int
	for _, g := range e.gens {
		rep += g.repeats
		all += g.predicts
	}
	if all == 0 {
		return 0
	}
	return float64(rep) / float64(all)
}

// runServe is the untraced run of a serving workload: the end-to-end
// metrics.
func runServe(kind string, seed int64, seconds float64, sz sizes) (*result, error) {
	var setups []float64
	var env *serveEnv
	for i := 0; i < sz.setups; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		var err error
		if env, err = newServeEnv(kind, seed, sz, false); err != nil {
			return nil, err
		}
		if err := env.warmup(); err != nil {
			env.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()

	rss := startRSSSampler(time.Second)
	win := env.window(time.Duration(seconds*float64(time.Second)), false)
	rssMB := rss.median()
	if win.err != nil {
		return nil, fmt.Errorf("%s: transport error in the window: %w", kind, win.err)
	}
	wrong, why := env.verify()
	sum := summarize(windows(win.logs()), fullWindows(win.elapsed))

	res := &result{Attempted: win.attempted, Failed: win.failed + wrong, note: why}
	ok := win.attempted - win.failed
	res.values = map[string]float64{
		"setup_s":   median(setups),
		"ops_per_s": float64(ok) / win.elapsed.Seconds(),
		"op_p50_us": sum.p50us,
		"op_p99_us": sum.p99us,
		"rss_mb":    rssMB,
	}
	res.detail = fmt.Sprintf("%d ops in %.2fs on %d connections; p50 over %d samples, p99 as median of %d windows of ~%.0f samples; %d responses checked",
		win.attempted, win.elapsed.Seconds(), len(env.gens), sum.n, sum.windows, sum.perWindow, env.checked())
	return res, nil
}

func (e *serveEnv) checked() int {
	n := 0
	for _, g := range e.gens {
		n += len(g.caps)
	}
	return n
}
