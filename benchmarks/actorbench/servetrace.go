package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/greenhpc/actor/internal/loadgen"
	"github.com/greenhpc/actor/internal/recal"
	"github.com/greenhpc/actor/internal/wire"
	"github.com/greenhpc/actor/pkg/actor"
)

// srvTracer is the traced run's middleware: a span around Server.ServeHTTP,
// recorded per connection. The generator is a closed loop, so the k-th span
// of a connection belongs to the k-th op its client sent: that pairing is
// the span's parent link, with no header added to the request.
type srvTracer struct {
	next http.Handler

	mu       sync.Mutex
	byRemote map[string]*connTrace
}

type connTrace struct {
	on    atomic.Bool
	start time.Time // window start: span times are offsets from it
	spans []srvSpan
}

type srvSpan struct {
	start int64 // ns since the window start
	dur   int32 // ns
	route uint8
}

type connKey struct{}

func newSrvTracer(next http.Handler) *srvTracer {
	return &srvTracer{next: next, byRemote: map[string]*connTrace{}}
}

func (t *srvTracer) connContext(ctx context.Context, c net.Conn) context.Context {
	ct := &connTrace{}
	t.mu.Lock()
	t.byRemote[c.RemoteAddr().String()] = ct
	t.mu.Unlock()
	return context.WithValue(ctx, connKey{}, ct)
}

// arm switches on the spans of the server-side connection whose peer is the
// client at local. The client calls it between two of its own requests, so
// no request of that connection is in flight.
func (t *srvTracer) arm(local string, start time.Time, capHint int) *connTrace {
	t.mu.Lock()
	ct := t.byRemote[local]
	t.mu.Unlock()
	if ct == nil {
		return nil
	}
	ct.start = start
	ct.spans = make([]srvSpan, 0, capHint)
	ct.on.Store(true)
	return ct
}

func (t *srvTracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ct, _ := r.Context().Value(connKey{}).(*connTrace)
	if ct == nil || !ct.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	route := uint8(routePredict)
	switch r.URL.Path {
	case routePaths[routeSweep]:
		route = routeSweep
	case routePaths[routeEval]:
		route = routeEval
	}
	t0 := time.Now()
	t.next.ServeHTTP(w, r)
	t1 := time.Now()
	ct.spans = append(ct.spans, srvSpan{start: int64(t0.Sub(ct.start)), dur: int32(min(t1.Sub(t0), math.MaxInt32)), route: route})
}

// runServeTraced is the traced run of a serving workload: the per-layer
// metrics. It measures, in order: the generator's floor against a stub
// listener, an untraced reference window (a third of the time), the traced
// window (the rest), and the direct probes of the layers under the handler.
func runServeTraced(kind string, seed int64, seconds float64, sz sizes, tracePath string) (*result, error) {
	overshoot, err := sleepOvershootUS(sz.sleeps) // first, while the process is idle
	if err != nil {
		return nil, err
	}
	env, err := newServeEnv(kind, seed, sz, true)
	if err != nil {
		return nil, err
	}
	defer env.close()
	if err := env.warmup(); err != nil {
		return nil, err
	}
	v := map[string]float64{
		"actor.bank.train_ms":            env.trainMS,
		"actor.bank.decode_ms":           env.decodeMS,
		"loadgen.sleep20us_overshoot_us": overshoot,
	}

	self, err := env.clientSelfUS()
	if err != nil {
		return nil, err
	}
	v["loadgen.client_self_us"] = self

	// Untraced and traced slices alternate, so host drift between the
	// start and the end of the run lands on both alike: trace overhead and
	// the attribution check compare like with like.
	total := time.Duration(seconds * float64(time.Second))
	slice := min(time.Second, total/2)
	var ref, tr windowResult
	var refWins [][]uint32
	var rtt, handler [numRoutes][]uint32
	var busy time.Duration
	unpaired := 0
	spans := &spanLog{}
	for i := 0; i < 2*int(total/(2*slice)); i++ {
		traced := i%2 == 1
		w := env.window(slice, traced)
		if w.err != nil {
			return nil, fmt.Errorf("%s: transport error in slice %d: %w", kind, i, w.err)
		}
		if !traced {
			ref.add(w)
			refWins = append(refWins, slices.Concat(windows(w.logs())...))
			continue
		}
		tr.add(w)
		// Pair each client op with its server span and split by route.
		for k, c := range w.conns {
			ct := c.trace
			if ct == nil || len(ct.spans) != len(c.log.ns) {
				unpaired++
				continue
			}
			for j, sp := range ct.spans {
				rtt[sp.route] = append(rtt[sp.route], c.log.ns[j])
				handler[sp.route] = append(handler[sp.route], uint32(sp.dur))
				busy += time.Duration(sp.dur)
				if j%traceSampleEvery == 0 {
					op := fmt.Sprintf("s%d-c%d-%d", i, k, j)
					off := int64(i) * int64(slice)
					root := spans.add(span{Name: "loadgen.rtt " + routePaths[sp.route], Op: op, Start: off + c.starts[j], End: off + c.starts[j] + int64(c.log.ns[j])})
					spans.add(span{Name: "actor.server " + routePaths[sp.route], Op: op, Parent: root, Start: off + sp.start, End: off + sp.start + int64(sp.dur)})
				}
			}
		}
	}
	wrong, why := env.verify()
	if unpaired > 0 {
		wrong++
		if why == nil {
			why = fmt.Errorf("%d connection slices whose server spans do not pair one-to-one with client ops", unpaired)
		}
	}

	refSum := summarize(refWins, len(refWins))
	var hist loadgen.Hist
	for _, ns := range refSum.sorted {
		hist.Add(int64(ns))
	}
	refOK := float64(ref.attempted - ref.failed)
	v["loadgen.rtt_p99_us"] = float64(hist.Quantile(0.99)) / 1e3
	v["loadgen.rtt_p999_us"] = float64(hist.Quantile(0.999)) / 1e3
	v["loadgen.rtt_samples"] = float64(hist.Count())
	v["loadgen.p99_window_samples"] = refSum.perWindow
	v["actor.server.allocs_per_op"] = float64(ref.mallocs) / refOK
	v["actor.server.bytes_per_op"] = float64(ref.bytes) / refOK
	v["actor.predmemo.repeat_share"] = env.repeatShare()
	refRate := refOK / ref.elapsed.Seconds()
	trRate := float64(tr.attempted-tr.failed) / tr.elapsed.Seconds()
	v["loadgen.trace_overhead_share"] = (refRate - trRate) / refRate

	p := func(v []uint32, q float64) float64 {
		slices.Sort(v)
		return quantile(v, q) / 1e3
	}
	v["actor.server.predict_handler_p50_us"] = p(handler[routePredict], 0.5)
	v["actor.server.predict_handler_p99_us"] = p(handler[routePredict], 0.99)
	v["actor.server.predict_rtt_p50_us"] = p(rtt[routePredict], 0.5)
	if kind == "serve_mixed" {
		v["actor.server.sweep_handler_p50_us"] = p(handler[routeSweep], 0.5)
		v["actor.server.eval_handler_p50_us"] = p(handler[routeEval], 0.5)
		v["actor.server.sweep_rtt_p50_us"] = p(rtt[routeSweep], 0.5)
		v["actor.server.eval_rtt_p50_us"] = p(rtt[routeEval], 0.5)
		env.trigMu.Lock()
		if len(env.triggerMS) > 0 {
			v["recal.trigger_ms"] = median(env.triggerMS)
		}
		v["recal.promotions"] = float64(env.promotions)
		env.trigMu.Unlock()
		v["recal.observe_us"], v["recal.observe_contended_us"] = probeObserve(sz.probeIters)
	}
	v["actor.server.busy_share"] = busy.Seconds() / (tr.elapsed.Seconds() * float64(runtime.NumCPU()))

	// Attribution: round trip = generator floor + http + handler. http is
	// what is left, so the three sum to the traced slices' round trip by
	// construction; attribution_gap_share says how far that round trip is
	// from the untraced slices', i.e. whether tracing distorted what it
	// attributes. It is reported, not counted as a failed op: between
	// adjacent seconds this host class drifts by more than tracing costs.
	rttP50 := v["actor.server.predict_rtt_p50_us"]
	v["http.self_us"] = rttP50 - v["actor.server.predict_handler_p50_us"] - self
	v["http.share"] = v["http.self_us"] / rttP50
	if kind != "serve_mixed" { // the untraced median there is over all routes
		v["loadgen.attribution_gap_share"] = math.Abs(rttP50-refSum.p50us) / refSum.p50us
	}

	if v["loadgen.openloop_p50_us"], err = probeOpenLoop(env, seed); err != nil {
		return nil, err
	}
	v["actor.server.handler_allocs_per_op"] = probeHandlerAllocs(env, sz.probeIters)
	v["actor.bank.predict_us"] = probeBankPredict(env, seed, sz.probeIters)
	v["wire.scan_us"], v["wire.emit_us"] = probeWire(env, sz.probeIters)

	v["host.peak_rss_mb"] = statusMB("VmHWM")
	if err := spans.write(tracePath); err != nil {
		return nil, err
	}
	res := &result{Attempted: ref.attempted + tr.attempted, Failed: ref.failed + tr.failed + wrong, note: why, values: v}
	res.detail = fmt.Sprintf("untraced slices %d ops in %.2fs, traced slices %d ops in %.2fs, %d spans kept (1 op in %d) in %s",
		ref.attempted, ref.elapsed.Seconds(), tr.attempted, tr.elapsed.Seconds(), len(spans.spans), traceSampleEvery, tracePath)
	return res, nil
}

// clientSelfUS is the generator's floor: the median round trip of its own
// frames against the stub listener, on as many connections as the real run.
func (e *serveEnv) clientSelfUS() (float64, error) {
	reply := []byte(`{"best":"4"}` + "\n")
	stub, err := startStub(reply)
	if err != nil {
		return 0, err
	}
	defer stub.stop()
	n := len(e.gens)
	per := e.sz.calibOps / n
	lats := make([][]uint32, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := range e.gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := dial(stub.addr())
			if err != nil {
				errs[k] = err
				return
			}
			defer cl.close()
			fr := e.gens[k].anyPredictFrame()
			lats[k] = make([]uint32, 0, per)
			for i := 0; i < per+per/4; i++ {
				t0 := time.Now()
				if _, _, err := cl.roundTrip(fr); err != nil {
					errs[k] = err
					return
				}
				if i >= per/4 { // the first fifth warms the connection
					lats[k] = append(lats[k], uint32(time.Since(t0)))
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("stub calibration: %w", err)
		}
	}
	all := slices.Concat(lats...)
	slices.Sort(all)
	return quantile(all, 0.5) / 1e3, nil
}

func (g *reqGen) anyPredictFrame() []byte {
	if g.cold != nil {
		return g.cold
	}
	return g.hot[0]
}

// probeOpenLoop replays internal/loadgen's open-loop harness, unmodified, at
// the 2000 req/s BENCH_<n>.json was taken at, against the very server the
// closed loop just measured: the p50 it reports is the number the old gate
// tracked, and it is timer lateness (see sleepOvershootUS), not service time.
func probeOpenLoop(e *serveEnv, seed int64) (float64, error) {
	tr := loadgen.Trace(loadgen.Config{
		Seed: seed, Duration: e.sz.openLoop, Rate: 2000,
		Vectors: 32, Events: e.srv.Bank().Meta().EventSets[0],
	})
	n := len(e.gens)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: n}}
	defer client.CloseIdleConnections()
	res, err := loadgen.Run(context.Background(), client, "http://"+e.addr+routePaths[routePredict], tr, n)
	if err != nil {
		return 0, err
	}
	if res.Errors > 0 {
		return 0, fmt.Errorf("open-loop probe: %d of %d requests failed", res.Errors, res.Sent)
	}
	return float64(res.Lat.Quantile(0.5)) / 1e3, nil
}

// replayBody and discardWriter let probeHandlerAllocs call ServeHTTP in a
// loop without allocating anything itself.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// probeHandlerAllocs replays the first connection's predict stream straight
// into ServeHTTP and reads the allocation count per call: the handler's own
// share of actor.server.allocs_per_op, the rest being net/http's per-request
// objects. It reads 0 on memo hits.
func probeHandlerAllocs(e *serveEnv, iters int) float64 {
	g := e.gens[0]
	mix := g.mix
	g.mix = false // predict frames only, hot where the workload has them
	defer func() { g.mix = mix }()
	req := httptest.NewRequest(http.MethodPost, routePaths[routePredict], nil)
	body := &replayBody{}
	req.Body = body
	w := &discardWriter{h: http.Header{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < iters; i++ {
		fr, _ := g.next()
		body.Reset(frameBody(fr))
		e.srv.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
}

// coldRates draws rate vectors in the cold frame's ranges as actor.Rates.
func coldRates(events []string, seed int64, n int) []actor.Rates {
	rng := splitmix64(seed)
	unit := func() float64 { return float64(rng.next()>>11) / (1 << 53) }
	out := make([]actor.Rates, n)
	for i := range out {
		r := actor.Rates{"IPC": 1 + unit()}
		for _, ev := range events {
			r[ev] = 0.1 * unit()
		}
		out[i] = r
	}
	return out
}

// probeBankPredict times Bank.Predict alone, on distinct rate vectors, from
// one goroutine: the inference share of a serve_cold handler.
func probeBankPredict(e *serveEnv, seed int64, iters int) float64 {
	bank := e.srv.Bank()
	rates := coldRates(bank.Meta().EventSets[0], seed, 256)
	ctx := context.Background()
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := bank.Predict(ctx, rates[i%len(rates)]); err != nil {
			return 0
		}
	}
	return float64(time.Since(t0)) / 1e3 / float64(iters)
}

// probeWire token-walks a predict body with the public Scanner and emits a
// predict-response-shaped document with the public Emitter.
func probeWire(e *serveEnv, iters int) (scanUS, emitUS float64) {
	g := e.gens[0]
	fr := g.anyPredictFrame()
	body := frameBody(fr)
	var sink float64
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		sc := wire.GetScanner(body)
		if _, err := sc.BeginObjectOrNull(); err != nil {
			return 0, 0
		}
		for {
			key, ok, err := sc.ObjKey()
			if err != nil || !ok {
				break
			}
			if wire.FoldEq(key, "phase") {
				_, _ = sc.Str()
				continue
			}
			_, _ = sc.BeginObjectOrNull()
			for {
				_, ok, err := sc.ObjKey()
				if err != nil || !ok {
					break
				}
				f, _ := sc.Float()
				sink += f
			}
		}
		wire.PutScanner(sc)
	}
	scanUS = float64(time.Since(t0)) / 1e3 / float64(iters)

	configs := e.eng.ConfigNames()
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		em := wire.GetEmitter()
		em.BeginObject()
		em.Key("phase")
		em.Str("cold")
		em.Key("best")
		em.Str(configs[0])
		em.Key("predictions")
		em.BeginArray()
		for ci, c := range configs {
			em.BeginObject()
			em.Key("config")
			em.Str(c)
			em.Key("ipc")
			em.Float(1.234567 + float64(ci) + sink*0)
			em.EndObject()
		}
		em.EndArray()
		em.EndObject()
		if _, err := em.Finish(); err != nil {
			return 0, 0
		}
		wire.PutEmitter(em)
	}
	emitUS = float64(time.Since(t0)) / 1e3 / float64(iters)
	return scanUS, emitUS
}

// probeObserve times recal.Store.Observe from one goroutine and from nproc
// goroutines sharing one store: the single store mutex ROADMAP names has
// never been measured under contention.
func probeObserve(iters int) (soloUS, contendedUS float64) {
	obs := recal.Obs{Phase: recal.HashPhase([]byte("steady")), Err: 0.05, IPC: 1.5, HasIPC: true, Mask: 1}
	store := recal.NewStore(recal.StoreConfig{})
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		store.Observe(obs)
	}
	soloUS = float64(time.Since(t0)) / 1e3 / float64(iters)

	store = recal.NewStore(recal.StoreConfig{})
	n := runtime.NumCPU()
	var wg sync.WaitGroup
	t0 = time.Now()
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				store.Observe(obs)
			}
		}()
	}
	wg.Wait()
	// Per call as a caller sees it: wall time over the calls each goroutine made.
	contendedUS = float64(time.Since(t0)) / 1e3 / float64(iters)
	return soloUS, contendedUS
}
