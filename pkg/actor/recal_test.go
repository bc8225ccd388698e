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

// TestEnableRecalibrationRejectsNonFinite refuses the margins and canary
// fractions no clamp can repair: a NaN margin fails every promotion test, a
// NaN canary fraction silently skips the canary. Refused configurations do
// not latch the loop on, so a valid one still enables it afterwards.
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
		{"canary NaN", actor.RecalConfig{CanaryFrac: nan}, "canary fraction NaN is not finite"},
		{"canary +Inf", actor.RecalConfig{CanaryFrac: inf}, "canary fraction +Inf is not finite"},
		{"canary -Inf", actor.RecalConfig{CanaryFrac: -inf}, "canary fraction -Inf is not finite"},
	} {
		if _, err := srv.EnableRecalibration(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	if _, err := srv.EnableRecalibration(actor.RecalConfig{Margin: -1, CanaryFrac: 2}); err != nil {
		t.Fatalf("finite out-of-range values clamp, but were refused: %v", err)
	}
}

// recalWindow is the observation store's reference and rolling window
// length: 256 observations arm the drift detector, 256 more fill the window.
const recalWindow = 256

// TestRecalLifecycle drives the full loop end to end in-process: steady
// traffic arms the drift detector, a phase flip trips it, Tick retrains and
// promotes a new generation with provenance on /v1/bank, and rollback
// restores the previous generation's /v1/bank body byte-identically.
//
// Each side of the flip spreads over 16 labels, 16 observations apiece:
// below the 32-observation burn-in of the per-phase error EWMA, so only the
// novel-phase statistic can trip.
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

	// The steady observations arm the reference window; a Tick here must
	// not retrain (window empty, nothing tripped).
	for i := 0; i < recalWindow; i++ {
		predictAs(t, srv, bank, fmt.Sprintf("steady%d", i%16), 1.1)
	}
	rec.Tick(context.Background())
	if got := do(t, srv, http.MethodGet, "/v1/bank", "").Body.String(); got != bankBefore {
		t.Fatal("bank changed before any drift")
	}

	// The phase flip: observations under labels the reference window never
	// saw fill the rolling window with 100% novel mass.
	for i := 0; i < recalWindow; i++ {
		predictAs(t, srv, bank, fmt.Sprintf("shifted%d", i%16), 1.1)
	}
	st := statusOf(t, srv)
	if !st.Drift.Tripped || st.Drift.Reason != "novel-phase" {
		t.Fatalf("drift not tripped by phase flip: %+v", st.Drift)
	}

	rec.Tick(context.Background())
	st = statusOf(t, srv)
	if st.Generation != 1 {
		t.Fatalf("generation = %d after drift tick, want 1 (events: %+v)", st.Generation, st.Events)
	}
	if st.History != 1 || st.State != "idle" {
		t.Fatalf("history=%d state=%q after promotion, want 1/idle", st.History, st.State)
	}
	last := st.Events[len(st.Events)-1]
	if last.Kind != "promoted" || last.Trigger != "drift:novel-phase" || last.Generation != 1 {
		t.Fatalf("last event = %+v, want promoted/drift:novel-phase/gen1", last)
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
	if p.Parent != 0 || p.Trigger != "drift:novel-phase" || p.TrainSamples == 0 || p.HoldoutSamples == 0 {
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
func TestRecalTriggerDeterministic(t *testing.T) {
	run := func(procs int) (string, string) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		srv, _ := newRecalServer(t)
		if _, err := srv.EnableRecalibration(actor.RecalConfig{}); err != nil {
			t.Fatal(err)
		}
		rr := do(t, srv, http.MethodPost, "/v1/recal/trigger", "")
		if rr.Code != http.StatusOK {
			t.Fatalf("trigger = %d: %s", rr.Code, rr.Body)
		}
		bank := do(t, srv, http.MethodGet, "/v1/bank", "").Body.String()
		return rr.Body.String(), bank
	}
	out1, bank1 := run(1)
	out4, bank4 := run(4)
	if out1 != out4 {
		t.Errorf("trigger outcome differs across GOMAXPROCS:\n 1: %s\n 4: %s", out1, out4)
	}
	if bank1 != bank4 {
		t.Error("promoted /v1/bank bytes differ across GOMAXPROCS")
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

// TestRecalCanary exercises the canary path: a validated candidate is held,
// shadow-scored on admitted live traffic, auto-promoted once enough requests
// scored cleanly, and a rollback mid-canary aborts without ever swapping.
func TestRecalCanary(t *testing.T) {
	srv, bank := newRecalServer(t)
	rec, err := srv.EnableRecalibration(actor.RecalConfig{CanaryFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rec.Trigger(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Outcome != "canary" {
		t.Fatalf("outcome = %q, want canary", out.Outcome)
	}
	if st := statusOf(t, srv); st.State != "canary" || st.Generation != 0 {
		t.Fatalf("status during canary = %+v", st)
	}
	// A second trigger while the canary is in flight must 409.
	if rr := do(t, srv, http.MethodPost, "/v1/recal/trigger", ""); rr.Code != http.StatusConflict {
		t.Fatalf("trigger during canary = %d, want 409", rr.Code)
	}
	// Rollback during the canary aborts it; the live bank never changed.
	if rr := do(t, srv, http.MethodPost, "/v1/recal/rollback", ""); rr.Code != http.StatusOK {
		t.Fatalf("rollback during canary = %d: %s", rr.Code, rr.Body)
	}
	st := statusOf(t, srv)
	if st.State != "idle" || st.Generation != 0 {
		t.Fatalf("canary abort left %+v", st)
	}
	if last := st.Events[len(st.Events)-1]; last.Kind != "canary-abort" {
		t.Fatalf("last event = %+v, want canary-abort", last)
	}

	// Round two: let the canary complete. The platform is stationary, so a
	// given attempt's fresh campaign may legitimately fail to beat the live
	// bank at margin 0 — each rejection re-arms to idle, and the attempt
	// counter reseeds the next campaign, so retry until a canary begins.
	began := false
	for i := 0; i < 8 && !began; i++ {
		out, err := rec.Trigger(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		began = out.Outcome == "canary"
	}
	if !began {
		t.Fatal("no canary began in 8 attempts")
	}
	// CanaryFrac 1 admits every observation, so the 64 requests a canary
	// needs plus a Tick auto-promote.
	for i := 0; i < 64; i++ {
		predictAs(t, srv, bank, fmt.Sprintf("p%d", i), 1.1)
	}
	st = statusOf(t, srv)
	if st.Canary.Scored < 64 || st.Canary.Failed != 0 {
		t.Fatalf("canary tallies = %+v, want >=64 scored, 0 failed", st.Canary)
	}
	rec.Tick(context.Background())
	if st = statusOf(t, srv); st.State != "idle" || st.Generation != 1 {
		t.Fatalf("canary did not auto-promote: %+v", st)
	}

	// Promote with no canary in flight must 409.
	if rr := do(t, srv, http.MethodPost, "/v1/recal/promote", ""); rr.Code != http.StatusConflict {
		t.Fatalf("promote while idle = %d, want 409", rr.Code)
	}
}

// TestRecalManualPromote force-completes a canary through the admin route.
func TestRecalManualPromote(t *testing.T) {
	srv, _ := newRecalServer(t)
	rec, err := srv.EnableRecalibration(actor.RecalConfig{CanaryFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := rec.Trigger(context.Background()); err != nil || out.Outcome != "canary" {
		t.Fatalf("trigger: %+v, %v", out, err)
	}
	if rr := do(t, srv, http.MethodPost, "/v1/recal/promote", ""); rr.Code != http.StatusOK {
		t.Fatalf("promote = %d: %s", rr.Code, rr.Body)
	}
	if st := statusOf(t, srv); st.Generation != 1 || st.State != "idle" {
		t.Fatalf("manual promote left %+v", st)
	}
}

// TestRecalDisabledRoutes: without EnableRecalibration the admin routes
// answer 503, and predict traffic is untouched.
func TestRecalDisabledRoutes(t *testing.T) {
	srv := newTestServer(t)
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/v1/recal/status"},
		{http.MethodPost, "/v1/recal/trigger"},
		{http.MethodPost, "/v1/recal/promote"},
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
}

// TestRecalMemoInvalidationOnSwap: a request cached under one bank
// generation must be re-predicted — not replayed from the memo — after
// SwapBank installs a different bank.
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
	// exactly bank A's, proving the final memo generation is coherent.
	if err := srv.SwapBank(bankA); err != nil {
		t.Fatal(err)
	}
	if got := predictAs(t, srv, bankA, "x", 1.1); got != wantA {
		t.Fatal("settled server does not serve bank A's bytes")
	}
}

// TestRecalCanaryConcurrent shadow-scores a canary from several predict
// goroutines while another polls status and ticks the loop: under -race it
// checks that admission, the tallies and the event log are safe to reach at
// once, and the canary still promotes once enough requests scored.
func TestRecalCanaryConcurrent(t *testing.T) {
	srv, bank := newRecalServer(t)
	rec, err := srv.EnableRecalibration(actor.RecalConfig{CanaryFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	began := false
	for i := 0; i < 8 && !began; i++ {
		out, err := rec.Trigger(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		began = out.Outcome == "canary"
	}
	if !began {
		t.Fatal("no canary began in 8 attempts")
	}

	const workers, reqs = 4, 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				body, _ := json.Marshal(actor.PredictRequest{Phase: fmt.Sprintf("w%dr%d", w, i), Rates: testRates(bank, 1.1)})
				rr := httptest.NewRecorder()
				srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(string(body))))
				if rr.Code != http.StatusOK {
					t.Errorf("predict = %d: %s", rr.Code, rr.Body)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 16; i++ {
			_ = rec.Status()
			rec.Tick(context.Background())
		}
	}()
	wg.Wait()
	<-done

	rec.Tick(context.Background())
	st := statusOf(t, srv)
	if st.State != "idle" || st.Generation != 1 {
		t.Fatalf("canary did not promote after %d scored requests: %+v", workers*reqs, st)
	}
	if last := st.Events[len(st.Events)-1]; last.Kind != "promoted" {
		t.Fatalf("last event = %+v, want promoted", last)
	}
}
