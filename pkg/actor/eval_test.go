package actor_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/greenhpc/actor/pkg/actor"
)

func evalBody(t *testing.T, eng *actor.Engine, units []actor.SweepRequest) string {
	t.Helper()
	req := actor.EvalRequest{
		Topology:    eng.TopologyDesc(),
		Seed:        eng.Seed(),
		BankVersion: actor.BankVersion,
		Units:       units,
	}
	req.Shard.Fingerprint = req.Fingerprint()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestServerEval: a shard evaluated over /v1/eval returns exactly the rows
// the engine computes in-process, and a re-delivered shard returns
// byte-identical bytes (idempotency).
func TestServerEval(t *testing.T) {
	srv := newTestServer(t)
	eng, _ := servingFixture(t)
	units := eng.Workload()
	if len(units) < 2 {
		t.Fatalf("workload has only %d units", len(units))
	}
	shard := units[:2]
	body := evalBody(t, eng, shard)

	first := do(t, srv, http.MethodPost, "/v1/eval", body)
	if first.Code != http.StatusOK {
		t.Fatalf("eval = %d: %s", first.Code, first.Body)
	}
	var resp actor.EvalResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var want []actor.PhaseSweep
	for _, u := range shard {
		sweeps, err := eng.Sweep(context.Background(), u)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, sweeps...)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(resp.Sweeps)
	if string(gotJSON) != string(wantJSON) {
		t.Error("served shard differs from in-process evaluation")
	}

	// Idempotent re-delivery: the duplicate answers the same bytes.
	second := do(t, srv, http.MethodPost, "/v1/eval", body)
	if second.Code != http.StatusOK || second.Body.String() != first.Body.String() {
		t.Errorf("re-delivery diverged: %d vs %d", second.Code, first.Code)
	}
}

func TestServerEvalRejections(t *testing.T) {
	srv := newTestServer(t)
	eng, bank := servingFixture(t)
	units := eng.Workload()[:1]
	good := actor.EvalRequest{
		Topology: eng.TopologyDesc(), Seed: eng.Seed(),
		BankVersion: actor.BankVersion, Units: units,
	}
	mk := func(mut func(r *actor.EvalRequest)) string {
		r := good
		r.Units = append([]actor.SweepRequest(nil), good.Units...)
		mut(&r)
		body, _ := json.Marshal(r)
		return string(body)
	}
	cases := []struct {
		name, body, want string
		code             int
	}{
		{"malformed JSON", `{`, "bad payload", http.StatusBadRequest},
		{"no units", mk(func(r *actor.EvalRequest) {
			r.Units = nil
			r.Shard.Fingerprint = r.Fingerprint()
		}), "units", http.StatusBadRequest},
		{"wrong topology", mk(func(r *actor.EvalRequest) {
			r.Topology = "16x2"
			r.Shard.Fingerprint = r.Fingerprint()
		}), "topology", http.StatusConflict},
		{"wrong seed", mk(func(r *actor.EvalRequest) {
			r.Seed = bank.Meta().Seed + 1
			r.Shard.Fingerprint = r.Fingerprint()
		}), "seed", http.StatusConflict},
		{"wrong bank version", mk(func(r *actor.EvalRequest) {
			r.BankVersion = actor.BankVersion + 7
			r.Shard.Fingerprint = r.Fingerprint()
		}), "version", http.StatusConflict},
		{"fingerprint mismatch", mk(func(r *actor.EvalRequest) {
			r.Shard.Fingerprint = "deadbeef"
		}), "corrupt or truncated", http.StatusConflict},
		// One unit past the whole workload; TestEvalCacheBounded serves
		// shards at the limit.
		{"more units than the workload", mk(func(r *actor.EvalRequest) {
			r.Units = append(eng.Workload(), r.Units[0])
			r.Shard.Fingerprint = r.Fingerprint()
		}), "bad payload", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, srv, http.MethodPost, "/v1/eval", tc.body)
			if rec.Code != tc.code {
				t.Fatalf("code = %d, want %d (%s)", rec.Code, tc.code, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), tc.want) {
				t.Errorf("error %s does not mention %q", rec.Body, tc.want)
			}
		})
	}
	if rec := do(t, srv, http.MethodGet, "/v1/eval", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/eval = %d, want 405", rec.Code)
	}
}

// TestServerReadyz: readiness is distinct from liveness — a draining
// server stays alive but reports 503 so routers stop sending work — and
// reflects drain only: any number of in-flight sweeps leaves it ready.
func TestServerReadyz(t *testing.T) {
	eng, _ := servingFixture(t)
	srv, err := actor.NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// 64 goroutines sweep without pause while the probe reads.
	const inflight = 64
	stop := make(chan struct{})
	var started, done sync.WaitGroup
	started.Add(inflight)
	done.Add(inflight)
	for g := 0; g < inflight; g++ {
		go func() {
			defer done.Done()
			started.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rec := do(t, srv, http.MethodPost, "/v1/sweep", `{"bench":"SP"}`); rec.Code != http.StatusOK {
					t.Errorf("sweep under load = %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	started.Wait()
	for i := 0; i < 32; i++ {
		rec := do(t, srv, http.MethodGet, "/readyz", "")
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ready") {
			t.Errorf("readyz under %d in-flight sweeps = %d: %s", inflight, rec.Code, rec.Body)
			break
		}
	}
	close(stop)
	done.Wait()

	wantDraining := func(srv *actor.Server, after string) {
		t.Helper()
		rec := do(t, srv, http.MethodGet, "/readyz", "")
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
			t.Fatalf("readyz after %s = %d: %s", after, rec.Code, rec.Body)
		}
	}
	srv.BeginDrain()
	wantDraining(srv, "BeginDrain")
	// Liveness is unaffected, and the data path still answers while
	// in-flight work drains.
	if rec := do(t, srv, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Errorf("draining healthz = %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodPost, "/v1/sweep", `{"bench":"SP"}`); rec.Code != http.StatusOK {
		t.Errorf("draining sweep = %d: %s", rec.Code, rec.Body)
	}

	// Close drains too.
	closed, err := actor.NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	wantDraining(closed, "Close")
}

// TestServerOwnsNoGoroutine: a Server is its handlers and nothing else, so
// NewServer, traffic and Close each leave the goroutine count where it was.
func TestServerOwnsNoGoroutine(t *testing.T) {
	eng, _ := servingFixture(t)
	baseline := runtime.NumGoroutine()
	census := func(stage string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("%s: %d goroutines, %d before NewServer", stage, n, baseline)
		}
	}
	srv, err := actor.NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	census("after NewServer")
	for _, body := range []string{`{"bench":"SP"}`, `{"bench":"CG","phases":["nope"]}`} {
		do(t, srv, http.MethodPost, "/v1/sweep", body)
	}
	do(t, srv, http.MethodPost, "/v1/eval", evalBody(t, eng, eng.Workload()[:1]))
	census("after traffic")
	srv.Close()
	census("after Close")
}

// TestServerCloseDuringSweeps hammers Close concurrently with in-flight
// sweeps: every request must resolve to 200 or 503 — never a hang, never
// a panic — and Close must be concurrency-safe and idempotent. Run under
// -race in CI.
func TestServerCloseDuringSweeps(t *testing.T) {
	eng, _ := servingFixture(t)
	for round := 0; round < 4; round++ {
		srv, err := actor.NewServer(eng)
		if err != nil {
			t.Fatal(err)
		}
		const goroutines = 8
		var wg sync.WaitGroup
		codes := make(chan int, goroutines*4)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					rec := do(t, srv, http.MethodPost, "/v1/sweep", `{"bench":"SP"}`)
					codes <- rec.Code
				}
			}()
		}
		// Close mid-flight from two goroutines at once.
		wg.Add(2)
		for k := 0; k < 2; k++ {
			go func() {
				defer wg.Done()
				srv.Close()
			}()
		}
		wg.Wait()
		close(codes)
		for code := range codes {
			if code != http.StatusOK && code != http.StatusServiceUnavailable {
				t.Fatalf("round %d: sweep during Close answered %d", round, code)
			}
		}
	}
}

// TestServerCanceledRequestsReleaseSlots: client-abandoned requests must
// not leak goroutines or wedge the server. A sweep whose context is already
// cancelled is a 503; the goroutine census is the goleak-style assertion;
// the follow-up sweep proves live requests are still served.
func TestServerCanceledRequestsReleaseSlots(t *testing.T) {
	srv := newTestServer(t)
	_, bank := servingFixture(t)
	// Warm up the serving path so lazily started runtime goroutines exist
	// before the census.
	if rec := do(t, srv, http.MethodPost, "/v1/sweep", `{"bench":"SP"}`); rec.Code != http.StatusOK {
		t.Fatalf("warmup sweep = %d", rec.Code)
	}
	baseline := runtime.NumGoroutine()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	predictBody, _ := json.Marshal(actor.PredictRequest{Rates: testRates(bank, 1.0)})
	for i := 0; i < 64; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(`{"bench":"SP"}`)).WithContext(canceled)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("canceled sweep %d answered %d: %s", i, rec.Code, rec.Body)
		}
		req = httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(string(predictBody))).WithContext(canceled)
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code == 0 {
			t.Fatalf("canceled predict %d did not answer", i)
		}
	}

	if rec := do(t, srv, http.MethodPost, "/v1/sweep", `{"bench":"SP"}`); rec.Code != http.StatusOK {
		t.Fatalf("sweep after canceled storm = %d: %s", rec.Code, rec.Body)
	}
	// Goroutine census: allow transient scheduler noise to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerBodyLimits: an oversized body is rejected with 413 instead of
// being buffered (or streamed) without bound.
func TestServerBodyLimits(t *testing.T) {
	srv := newTestServer(t)
	big := `{"rates":{"IPC":` + strings.Repeat("1", 2<<20) + `}}`
	for _, path := range []string{"/v1/predict", "/v1/sweep", "/v1/eval"} {
		rec := do(t, srv, http.MethodPost, path, big)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with 2 MiB body = %d, want 413 (%.80s)", path, rec.Code, rec.Body)
		}
	}
}
