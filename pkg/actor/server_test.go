package actor_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/greenhpc/actor/pkg/actor"
)

// The serving tests share one engine + MLR bank (collection dominates the
// cost; the model family is irrelevant to the HTTP layer).
var (
	srvOnce sync.Once
	srvEng  *actor.Engine
	srvBank *actor.Bank
	srvErr  error
)

func servingFixture(t testing.TB) (*actor.Engine, *actor.Bank) {
	t.Helper()
	srvOnce.Do(func() {
		srvEng, srvErr = actor.New(actor.WithFast(), actor.WithRepetitions(1), actor.WithMLR())
		if srvErr != nil {
			return
		}
		srvBank, srvErr = srvEng.Train(context.Background())
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srvEng, srvBank
}

func newTestServer(t testing.TB) *actor.Server {
	t.Helper()
	eng, _ := servingFixture(t)
	srv, err := actor.NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func do(t *testing.T, srv *actor.Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestServerHealthAndBank(t *testing.T) {
	srv := newTestServer(t)
	if rec := do(t, srv, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d: %s", rec.Code, rec.Body)
	}
	rec := do(t, srv, http.MethodGet, "/v1/bank", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("bank = %d: %s", rec.Code, rec.Body)
	}
	var info actor.BankInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Meta.Configs) == 0 || info.Meta.SampleConfig == "" || len(info.Benches) == 0 {
		t.Errorf("bank info incomplete: %+v", info)
	}
	if rec := do(t, srv, http.MethodPost, "/healthz", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", rec.Code)
	}
}

func TestServerPredict(t *testing.T) {
	srv := newTestServer(t)
	_, bank := servingFixture(t)
	rates := testRates(bank, 1.1)
	body, _ := json.Marshal(actor.PredictRequest{Phase: "x_solve", Rates: rates})
	rec := do(t, srv, http.MethodPost, "/v1/predict", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", rec.Code, rec.Body)
	}
	var resp actor.PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Phase != "x_solve" || resp.Best == "" {
		t.Errorf("incomplete response: %+v", resp)
	}
	// Every configuration of the space must appear exactly once: the
	// targets as predictions, the sampling configuration as observed.
	if want := len(bank.Meta().Configs); len(resp.Predictions) != want {
		t.Errorf("%d predictions, want %d", len(resp.Predictions), want)
	}
	if resp.Predictions[0].Config != resp.Best {
		t.Errorf("best %q is not the top-ranked entry %+v", resp.Best, resp.Predictions[0])
	}
}

// TestServedPredictionsMatchInProcess is the serving acceptance check: a
// bank saved, loaded and served by the HTTP layer must return predictions
// bit-identical to calling Predict in-process on the same inputs.
func TestServedPredictionsMatchInProcess(t *testing.T) {
	_, bank := servingFixture(t)
	data, err := bank.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := actor.DecodeBank(data)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := actor.ForBank(loaded)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := actor.NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, ipc := range []float64{0.3, 1.1, 3.3} {
		rates := testRates(bank, ipc)
		want, err := bank.Predict(context.Background(), rates)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(actor.PredictRequest{Rates: rates})
		rec := do(t, srv, http.MethodPost, "/v1/predict", string(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("predict = %d: %s", rec.Code, rec.Body)
		}
		var resp actor.PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Predictions, want) {
			t.Errorf("served predictions differ from in-process at IPC %g:\nserved:     %+v\nin-process: %+v",
				ipc, resp.Predictions, want)
		}
	}
}

func TestServerPredictBadPayloads(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct {
		name, body, want string
	}{
		{"malformed JSON", `{"rates": nope}`, "bad payload"},
		{"missing rates", `{"phase":"x"}`, "rates"},
		{"unknown field", `{"rate":{"IPC":1}}`, "bad payload"},
		{"unknown event", `{"rates":{"IPC":1,"NOT_AN_EVENT":0.5}}`, "unknown event"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, srv, http.MethodPost, "/v1/predict", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("code = %d, want 400 (%s)", rec.Code, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), tc.want) {
				t.Errorf("error %s does not mention %q", rec.Body, tc.want)
			}
		})
	}
	if rec := do(t, srv, http.MethodGet, "/v1/predict", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/predict = %d, want 405", rec.Code)
	}
}

func TestServerSweep(t *testing.T) {
	srv := newTestServer(t)
	eng, _ := servingFixture(t)
	rec := do(t, srv, http.MethodPost, "/v1/sweep", `{"bench":"SP"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", rec.Code, rec.Body)
	}
	var resp actor.SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want, err := eng.Sweep(context.Background(), actor.SweepRequest{Bench: "SP"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Sweeps, want) {
		t.Errorf("served sweep differs from in-process:\nserved:     %+v\nin-process: %+v", resp.Sweeps, want)
	}
	// Restricting to one phase returns exactly that phase.
	phase := want[0].Phase
	rec = do(t, srv, http.MethodPost, "/v1/sweep", `{"bench":"SP","phases":["`+phase+`"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("phase sweep = %d: %s", rec.Code, rec.Body)
	}
	var one actor.SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatal(err)
	}
	if len(one.Sweeps) != 1 || one.Sweeps[0].Phase != phase {
		t.Errorf("phase-restricted sweep returned %+v", one.Sweeps)
	}
}

func TestServerSweepBadPayloads(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct {
		name, body, want string
		code             int
	}{
		{"malformed JSON", `{`, "bad payload", http.StatusBadRequest},
		{"missing bench", `{}`, "bench", http.StatusBadRequest},
		{"unknown bench", `{"bench":"NOPE"}`, "unknown benchmark", http.StatusBadRequest},
		{"unknown phase", `{"bench":"SP","phases":["nope"]}`, "no phase", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, srv, http.MethodPost, "/v1/sweep", tc.body)
			if rec.Code != tc.code {
				t.Fatalf("code = %d, want %d (%s)", rec.Code, tc.code, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), tc.want) {
				t.Errorf("error %s does not mention %q", rec.Body, tc.want)
			}
		})
	}
}

// TestServerConcurrentPredictRace hammers /v1/predict and /v1/sweep from 8
// goroutines. Predictions share the bank's scratch pools; sweeps of distinct
// benchmarks run concurrently on their request goroutines over the engine's
// shared phase memo, and every reply must equal the sequential bytes — run
// under -race this is the serving-path data-race check.
func TestServerConcurrentPredictRace(t *testing.T) {
	srv := newTestServer(t)
	eng, bank := servingFixture(t)
	benches := eng.BenchNames()
	bodies := make([]string, len(benches))
	wantSweep := make([]string, len(benches))
	for i, name := range benches {
		bodies[i] = `{"bench":"` + name + `"}`
		rec := do(t, srv, http.MethodPost, "/v1/sweep", bodies[i])
		if rec.Code != http.StatusOK {
			t.Fatalf("sequential sweep %s = %d: %s", name, rec.Code, rec.Body)
		}
		wantSweep[i] = rec.Body.String()
	}
	const goroutines = 8
	const perG = 24
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rates := testRates(bank, 0.5+0.1*float64(g))
				body, _ := json.Marshal(actor.PredictRequest{Rates: rates})
				rec := do(t, srv, http.MethodPost, "/v1/predict", string(body))
				if rec.Code != http.StatusOK {
					errc <- errFromBody("predict", rec)
					return
				}
				if i%4 == 0 {
					// Goroutines are on different benches at any instant.
					b := (g + i/4) % len(benches)
					rec = do(t, srv, http.MethodPost, "/v1/sweep", bodies[b])
					if rec.Code != http.StatusOK {
						errc <- errFromBody("sweep", rec)
						return
					}
					if rec.Body.String() != wantSweep[b] {
						errc <- errSweepMismatch
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestServerSweepNoCrossRequestLeak: a request's answer depends on that
// request alone. The v1 grammar accepts \u0000 inside a string, so (bench
// "SP\x00x_solve", phase "y_solve") and (bench "SP", phases "x_solve",
// "y_solve") are different grammar-valid requests that a NUL-joined key
// conflates; served concurrently, the first is always the 400 naming its
// unknown benchmark and the second always the sequential 200 bytes.
func TestServerSweepNoCrossRequestLeak(t *testing.T) {
	srv := newTestServer(t)
	const unknown = `{"bench":"SP\u0000x_solve","phases":["y_solve"]}`
	const valid = `{"bench":"SP","phases":["x_solve","y_solve"]}`
	seq := do(t, srv, http.MethodPost, "/v1/sweep", valid)
	if seq.Code != http.StatusOK {
		t.Fatalf("sequential sweep = %d: %s", seq.Code, seq.Body)
	}
	want := seq.Body.String()
	const goroutines = 8
	const perG = 64
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if (g+i)%2 == 0 {
					rec := do(t, srv, http.MethodPost, "/v1/sweep", unknown)
					if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unknown benchmark") {
						errc <- errFromBody("unknown-bench sweep", rec)
						return
					}
					continue
				}
				rec := do(t, srv, http.MethodPost, "/v1/sweep", valid)
				if rec.Code != http.StatusOK {
					errc <- errFromBody("valid sweep", rec)
					return
				}
				if rec.Body.String() != want {
					errc <- errSweepMismatch
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

var errSweepMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent sweep response diverged from sequential" }

type httpError struct {
	op   string
	code int
	body string
}

func (e *httpError) Error() string {
	return e.op + ": status " + http.StatusText(e.code) + ": " + e.body
}

func errFromBody(op string, rec *httptest.ResponseRecorder) error {
	return &httpError{op: op, code: rec.Code, body: rec.Body.String()}
}
