package actor_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/greenhpc/actor/internal/recal"
	"github.com/greenhpc/actor/pkg/actor"
)

// newRecalEngine builds a private engine + bank for recalibration tests.
// Recal tests cannot share servingFixture: promotion and rollback swap the
// engine's attached bank, which would poison every other test using it.
func newRecalEngine(t testing.TB, opts ...actor.Option) (*actor.Engine, *actor.Bank) {
	t.Helper()
	eng, err := actor.New(append([]actor.Option{
		actor.WithFast(), actor.WithRepetitions(1), actor.WithMLR(),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := eng.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return eng, bank
}

func newRecalServer(t testing.TB, opts ...actor.Option) (*actor.Server, *actor.Bank) {
	t.Helper()
	eng, bank := newRecalEngine(t, opts...)
	srv, err := actor.NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, bank
}

// predictAs posts one /v1/predict request with the given phase label and
// returns the response body.
func predictAs(t *testing.T, srv *actor.Server, bank *actor.Bank, phase string, ipc float64) string {
	t.Helper()
	body, _ := json.Marshal(actor.PredictRequest{Phase: phase, Rates: testRates(bank, ipc)})
	rec := do(t, srv, http.MethodPost, "/v1/predict", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// TestEnableRecalibrationRejectsNonFinite refuses the margins no clamp can
// repair: a NaN margin fails every promotion test. Refused configurations
// do not latch recalibration on, so a valid one still enables it
// afterwards.
func TestEnableRecalibrationRejectsNonFinite(t *testing.T) {
	srv, _ := newRecalServer(t)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		cfg  actor.RecalConfig
		want string
	}{
		{"margin NaN", actor.RecalConfig{Margin: nan}, "margin NaN is not finite"},
		{"margin +Inf", actor.RecalConfig{Margin: inf}, "margin +Inf is not finite"},
		{"margin -Inf", actor.RecalConfig{Margin: -inf}, "margin -Inf is not finite"},
	} {
		if _, err := srv.EnableRecalibration(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	if _, err := srv.EnableRecalibration(actor.RecalConfig{Margin: -1}); err != nil {
		t.Fatalf("a finite out-of-range margin clamps, but was refused: %v", err)
	}
}

// TestRecalLifecycle drives the loop end to end in-process: Trigger
// retrains and promotes a new generation with provenance on /v1/bank, and
// rollback restores the previous generation's /v1/bank body
// byte-identically.
//
// The platform is stationary, so one attempt's fresh campaign may fail to
// beat the live bank at margin 0. A rejection leaves generation 0 serving
// and the attempt counter reseeds the next campaign, so the test retries
// until an attempt promotes.
func TestRecalLifecycle(t *testing.T) {
	srv, bank := newRecalServer(t)
	rec, err := srv.EnableRecalibration(actor.RecalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.EnableRecalibration(actor.RecalConfig{}); err == nil {
		t.Fatal("second EnableRecalibration did not fail")
	}

	bankBefore := do(t, srv, http.MethodGet, "/v1/bank", "").Body.String()
	if strings.Contains(bankBefore, `"generation"`) {
		t.Fatalf("generation 0 must be omitted from /v1/bank: %s", bankBefore)
	}

	var out actor.RecalOutcome
	for i := 0; i < 8 && out.Outcome != "promoted"; i++ {
		if out, err = rec.Trigger(context.Background()); err != nil {
			t.Fatal(err)
		}
		if out.Outcome == "rejected" {
			if got := do(t, srv, http.MethodGet, "/v1/bank", "").Body.String(); got != bankBefore {
				t.Fatal("a rejected attempt changed /v1/bank")
			}
		}
	}
	if out.Outcome != "promoted" {
		t.Fatal("no attempt promoted in 8")
	}
	st := statusOf(t, srv)
	if st.Generation != 1 || st.History != 1 {
		t.Fatalf("generation=%d history=%d after promotion, want 1/1 (events: %+v)", st.Generation, st.History, st.Events)
	}
	last := st.Events[len(st.Events)-1]
	if last.Kind != "promoted" || last.Trigger != "manual" || last.Generation != 1 {
		t.Fatalf("last event = %+v, want promoted/manual/gen1", last)
	}

	bankAfter := do(t, srv, http.MethodGet, "/v1/bank", "").Body.String()
	if bankAfter == bankBefore {
		t.Fatal("/v1/bank unchanged after promotion")
	}
	var info actor.BankInfo
	if err := json.Unmarshal([]byte(bankAfter), &info); err != nil {
		t.Fatal(err)
	}
	p := info.Meta.Provenance
	if info.Meta.Generation != 1 || p == nil {
		t.Fatalf("promoted bank meta lacks generation/provenance: %+v", info.Meta)
	}
	if p.Parent != 0 || p.Trigger != "manual" || p.TrainSamples == 0 || p.HoldoutSamples == 0 {
		t.Fatalf("provenance = %+v", p)
	}
	if !(p.CandidateErr <= p.LiveErr) {
		t.Fatalf("promoted candidate err %v did not beat live err %v", p.CandidateErr, p.LiveErr)
	}

	// The promoted generation serves predictions from the new bank: the
	// memo must not replay generation-0 bytes for a request it has cached.
	if got := predictAs(t, srv, bank, "steady", 1.1); got == "" {
		t.Fatal("predict failed after promotion")
	}

	// Rollback restores the previous generation byte-identically.
	if rr := do(t, srv, http.MethodPost, "/v1/recal/rollback", ""); rr.Code != http.StatusOK {
		t.Fatalf("rollback = %d: %s", rr.Code, rr.Body)
	}
	if got := do(t, srv, http.MethodGet, "/v1/bank", "").Body.String(); got != bankBefore {
		t.Fatalf("rolled-back /v1/bank is not byte-identical to the original\n got: %s\nwant: %s", got, bankBefore)
	}
	// Nothing left to roll back to.
	if rr := do(t, srv, http.MethodPost, "/v1/recal/rollback", ""); rr.Code != http.StatusConflict {
		t.Fatalf("second rollback = %d, want 409", rr.Code)
	}
}

func statusOf(t *testing.T, srv *actor.Server) recal.Snapshot {
	t.Helper()
	rr := do(t, srv, http.MethodGet, "/v1/recal/status", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rr.Code, rr.Body)
	}
	var snap recal.Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRecalTriggerDeterministic is the acceptance check on reproducibility:
// the same live bank triggers the same retrain decision and byte-identical
// promoted bank bytes, across independent servers and across GOMAXPROCS.
// One of the two servers first answers 1 024 predicts under 16 phase labels
// its bank never saw, at varied IPC: predict traffic, however drifted, must
// not reach the retrain.
func TestRecalTriggerDeterministic(t *testing.T) {
	run := func(procs int, traffic bool) (string, string) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		srv, bank := newRecalServer(t)
		if _, err := srv.EnableRecalibration(actor.RecalConfig{}); err != nil {
			t.Fatal(err)
		}
		if traffic {
			for i := 0; i < 1024; i++ {
				predictAs(t, srv, bank, fmt.Sprintf("drifted%d", i%16), 0.5+0.1*float64(i%23))
			}
		}
		rr := do(t, srv, http.MethodPost, "/v1/recal/trigger", "")
		if rr.Code != http.StatusOK {
			t.Fatalf("trigger = %d: %s", rr.Code, rr.Body)
		}
		return rr.Body.String(), do(t, srv, http.MethodGet, "/v1/bank", "").Body.String()
	}
	out1, bank1 := run(1, false)
	out4, bank4 := run(4, true)
	if out1 != out4 {
		t.Errorf("trigger outcome differs across GOMAXPROCS and traffic:\n 1, idle: %s\n 4, drifted: %s", out1, out4)
	}
	if bank1 != bank4 {
		t.Error("promoted /v1/bank bytes differ across GOMAXPROCS and traffic")
	}
	var out actor.RecalOutcome
	if err := json.Unmarshal([]byte(out1), &out); err != nil {
		t.Fatal(err)
	}
	if out.Outcome != "promoted" || out.Generation != 1 || out.Trigger != "manual" {
		t.Fatalf("trigger outcome = %+v, want promoted gen 1 manual", out)
	}
}

// TestRecalPromotedBankRoundTrip checks the provenance chain survives
// serialization: a promoted bank's Save/Load round trip is byte-identical,
// and a pre-provenance bank file (the old format) loads with generation 0
// and no provenance.
func TestRecalPromotedBankRoundTrip(t *testing.T) {
	srv, _ := newRecalServer(t)
	rec, err := srv.EnableRecalibration(actor.RecalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rec.Trigger(context.Background())
	if err != nil || out.Outcome != "promoted" {
		t.Fatalf("trigger: %+v, %v", out, err)
	}
	promoted := srv.Bank()
	data, err := promoted.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := actor.DecodeBank(data)
	if err != nil {
		t.Fatal(err)
	}
	if g := loaded.Meta().Generation; g != 1 {
		t.Fatalf("loaded generation = %d, want 1", g)
	}
	lp, pp := loaded.Meta().Provenance, promoted.Meta().Provenance
	if lp == nil || *lp != *pp {
		t.Fatalf("loaded provenance %+v != saved %+v", lp, pp)
	}
	data2, err := loaded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("promoted bank round trip is not byte-identical")
	}

	// Old-format file: strip the provenance fields the way a bank written
	// before this subsystem existed would lack them.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	delete(raw, "generation")
	delete(raw, "provenance")
	old, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := actor.DecodeBank(old)
	if err != nil {
		t.Fatalf("old-format bank did not load: %v", err)
	}
	if legacy.Meta().Generation != 0 || legacy.Meta().Provenance != nil {
		t.Fatalf("old-format bank carries provenance: %+v", legacy.Meta())
	}
}

// TestRecalDisabledRoutes: without EnableRecalibration the admin routes
// answer 503, and there is no promote route.
func TestRecalDisabledRoutes(t *testing.T) {
	srv := newTestServer(t)
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/v1/recal/status"},
		{http.MethodPost, "/v1/recal/trigger"},
		{http.MethodPost, "/v1/recal/rollback"},
	} {
		if rr := do(t, srv, c.method, c.path, ""); rr.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s = %d, want 503", c.method, c.path, rr.Code)
		}
	}
	if rr := do(t, srv, http.MethodPost, "/v1/recal/status", ""); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", rr.Code)
	}
	if rr := do(t, srv, http.MethodGet, "/v1/recal/trigger", ""); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET trigger = %d, want 405", rr.Code)
	}
	if rr := do(t, srv, http.MethodPost, "/v1/recal/promote", ""); rr.Code != http.StatusNotFound {
		t.Errorf("POST promote = %d, want 404", rr.Code)
	}
}

// TestRecalMemoInvalidationOnSwap: a request cached under one bank must be
// re-predicted — not replayed from the memo — after SwapBank installs a
// different bank.
func TestRecalMemoInvalidationOnSwap(t *testing.T) {
	eng, bankA := newRecalEngine(t)
	srv, err := actor.NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Same platform, different characterisation campaign: a distinct bank
	// that still attaches to the same engine.
	_, bankB := newRecalEngine(t, actor.WithRepetitions(2))

	first := predictAs(t, srv, bankA, "x", 1.1)
	if again := predictAs(t, srv, bankA, "x", 1.1); again != first {
		t.Fatal("memo-hit replay differs from first response")
	}
	if err := srv.SwapBank(bankB); err != nil {
		t.Fatal(err)
	}
	swapped := predictAs(t, srv, bankA, "x", 1.1)
	if swapped == first {
		t.Fatal("stale memo entry served after bank swap")
	}
	if again := predictAs(t, srv, bankA, "x", 1.1); again != swapped {
		t.Fatal("post-swap memo replay differs")
	}
	// Swapping back must serve the original bytes again.
	if err := srv.SwapBank(bankA); err != nil {
		t.Fatal(err)
	}
	if back := predictAs(t, srv, bankA, "x", 1.1); back != first {
		t.Fatal("restoring the original bank did not restore its bytes")
	}
}

// TestRecalSwapRace hammers /v1/predict concurrently with bank swaps and
// asserts every response is byte-exact for one of the two banks — never a
// torn or stale-generation body. Run with -race this also proves the swap
// path is data-race free.
func TestRecalSwapRace(t *testing.T) {
	eng, bankA := newRecalEngine(t)
	srv, err := actor.NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, bankB := newRecalEngine(t, actor.WithRepetitions(2))

	body, _ := json.Marshal(actor.PredictRequest{Phase: "x", Rates: testRates(bankA, 1.1)})
	wantA := predictAs(t, srv, bankA, "x", 1.1)
	if err := srv.SwapBank(bankB); err != nil {
		t.Fatal(err)
	}
	wantB := predictAs(t, srv, bankA, "x", 1.1)
	if wantA == wantB {
		t.Fatal("the two banks predict identically; race test needs distinguishable bodies")
	}

	const workers, reqs, swaps = 4, 200, 50
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(string(body)))
				rr := httptest.NewRecorder()
				srv.ServeHTTP(rr, req)
				if rr.Code != http.StatusOK {
					errs <- fmt.Sprintf("predict = %d: %s", rr.Code, rr.Body)
					return
				}
				if got := rr.Body.String(); got != wantA && got != wantB {
					errs <- fmt.Sprintf("response matches neither bank:\n%s", got)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < swaps; i++ {
			b := bankA
			if i%2 == 0 {
				b = bankB
			}
			if err := srv.SwapBank(b); err != nil {
				errs <- fmt.Sprintf("swap %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Settle on bank A: with no swap in flight the served bytes must be
	// exactly bank A's, proving the final state's memo is coherent.
	if err := srv.SwapBank(bankA); err != nil {
		t.Fatal(err)
	}
	if got := predictAs(t, srv, bankA, "x", 1.1); got != wantA {
		t.Fatal("settled server does not serve bank A's bytes")
	}
}
