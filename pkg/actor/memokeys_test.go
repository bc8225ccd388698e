package actor

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestNoRouteMintsUnboundedMemoKeys: no request mints memo keys without
// bound. Every (bench, phase) of the engine's space is a fixed set of phase
// memo keys, so after one pass of /v1/sweep over every bench and phase and
// of /v1/eval over every unit — with shards for the wrong seed (409) and for
// unknown phases (400) among them — further passes miss the machine memo no
// more. Distinct /v1/predict bodies, three times the predict memo's
// capacity of them, evict rather than grow it, and touch the machine memo
// not at all; the eval result cache stays within its limit.
func TestNoRouteMintsUnboundedMemoKeys(t *testing.T) {
	eng, err := New(WithFast(), WithRepetitions(1), WithMLR())
	if err != nil {
		t.Fatal(err)
	}
	bank, err := eng.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	post := func(path string, body []byte, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("POST %s %s = %d, want %d: %s", path, body, rec.Code, want, rec.Body)
		}
	}
	marshal := func(v any) []byte {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	shard := func(seed int64, units []SweepRequest) []byte {
		req := EvalRequest{Topology: eng.TopologyDesc(), Seed: seed, BankVersion: BankVersion, Units: units}
		req.Shard.Fingerprint = req.Fingerprint()
		return marshal(req)
	}

	units := eng.Workload()
	pass := func() {
		for _, bench := range eng.BenchNames() {
			post("/v1/sweep", marshal(SweepRequest{Bench: bench}), http.StatusOK)
			post("/v1/sweep", marshal(SweepRequest{Bench: bench, Phases: []string{"no-such-phase"}}), http.StatusBadRequest)
		}
		for _, u := range units {
			post("/v1/sweep", marshal(u), http.StatusOK)
		}
		for lo := 0; lo < len(units); lo += 4 {
			shardUnits := units[lo:min(lo+4, len(units))]
			post("/v1/eval", shard(eng.Seed(), shardUnits), http.StatusOK)
			post("/v1/eval", shard(eng.Seed()+1, shardUnits), http.StatusConflict)
		}
		unknown := []SweepRequest{{Bench: units[0].Bench, Phases: []string{"no-such-phase"}}}
		post("/v1/eval", shard(eng.Seed(), unknown), http.StatusBadRequest)
	}
	truth := eng.suite.Truth
	pass()
	_, misses := truth.MemoStats()
	if misses == 0 {
		t.Fatal("the first pass missed the machine memo nowhere: the memo is not reached")
	}
	for k := 0; k < 2; k++ {
		pass()
		if _, m := truth.MemoStats(); m != misses {
			t.Fatalf("pass %d: machine memo misses %d → %d, want no new key", k+2, misses, m)
		}
	}

	capacity := memoSets * memoWays
	for i := 0; i < 3*capacity; i++ {
		post("/v1/predict", marshal(PredictRequest{Rates: testRates(bank, 0.5+float64(i)/float64(capacity))}), http.StatusOK)
	}
	if n := srv.memo.entries(); n > capacity {
		t.Errorf("predict memo holds %d entries after %d distinct bodies, capacity %d", n, 3*capacity, capacity)
	}
	if _, m := truth.MemoStats(); m != misses {
		t.Errorf("predicts missed the machine memo: misses %d → %d", misses, m)
	}
	srv.evals.mu.Lock()
	n, limit := len(srv.evals.byFP), srv.evals.limit
	srv.evals.mu.Unlock()
	if n > limit {
		t.Errorf("eval cache holds %d shards, limit %d", n, limit)
	}
}

// testRates is a rate vector over the events of the bank's first predictor
// and the given IPC.
func testRates(b *Bank, ipc float64) Rates {
	r := Rates{"IPC": ipc}
	for i, name := range b.Meta().EventSets[0] {
		r[name] = 0.001 * float64(i+1)
	}
	return r
}
