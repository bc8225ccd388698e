package actor

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

// TestNoRouteMintsUnboundedMemoKeys: no request mints memo keys without
// bound. Every (bench, phase) of the engine's space is a fixed set of phase
// memo keys, so after one pass of /v1/sweep over every bench and phase and
// of /v1/eval over every unit — with shards for the wrong seed (409) and for
// unknown phases (400) among them — further passes miss the machine memo no
// more. Distinct /v1/predict bodies, three times the predict memo's
// capacity of them, evict rather than grow it, and touch the machine memo
// not at all; the eval result cache stays within its capacity.
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
	if n := srv.state.Load().memo.entries(); n > capacity {
		t.Errorf("predict memo holds %d entries after %d distinct bodies, capacity %d", n, 3*capacity, capacity)
	}
	if _, m := truth.MemoStats(); m != misses {
		t.Errorf("predicts missed the machine memo: misses %d → %d", misses, m)
	}
	if n := srv.evals.entries(); n > capacity {
		t.Errorf("eval cache holds %d shards, capacity %d", n, capacity)
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

// TestEvalCacheBounded posts more distinct shards than the eval cache has
// lines, among them two whole-workload shards (the most units a shard may
// name) whose replies on a 24-config machine exceed the per-entry cap: they
// are served, and the cache holds at most
// memoSets × memoWays entries of at most memoMaxResp bytes each, and a
// re-delivered shard, cached or not, gets the bytes of its first delivery.
func TestEvalCacheBounded(t *testing.T) {
	eng, err := New(WithFast(), WithRepetitions(1), WithMLR(), WithTopology("8x2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	post := func(units []SweepRequest) []byte {
		t.Helper()
		req := EvalRequest{Topology: eng.TopologyDesc(), Seed: eng.Seed(), BankVersion: BankVersion, Units: units}
		req.Shard.Fingerprint = req.Fingerprint()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("eval of %d units = %d: %s", len(units), rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}

	units := eng.Workload()
	capacity := memoSets * memoWays
	// Shards of three units (i, j, k) are distinct for distinct triples.
	var shards [][]SweepRequest
	for i := 0; len(shards) < capacity+capacity/2; i++ {
		n := len(units)
		shards = append(shards, []SweepRequest{units[i%n], units[(i/n)%n], units[(i/(n*n))%n]})
	}
	whole := units
	reversed := slices.Clone(units)
	slices.Reverse(reversed)
	shards = append(shards, whole, reversed)
	first := make([][]byte, len(shards))
	for i, sh := range shards {
		first[i] = post(sh)
	}
	if n := len(first[len(shards)-1]); n <= memoMaxResp {
		t.Fatalf("whole-workload reply is %d bytes, within the %d-byte cap: the test no longer reaches it", n, memoMaxResp)
	}
	if n := srv.evals.entries(); n > capacity {
		t.Errorf("eval cache holds %d entries after %d distinct shards, capacity %d", n, len(shards), capacity)
	}
	for i := range srv.evals.lines {
		if e := srv.evals.lines[i].Load(); e != nil && len(e.resp) > memoMaxResp {
			t.Errorf("eval cache entry of %d bytes, cap %d", len(e.resp), memoMaxResp)
		}
	}
	for _, i := range []int{0, capacity, len(shards) - 2, len(shards) - 1} {
		if got := post(shards[i]); !bytes.Equal(got, first[i]) {
			t.Errorf("re-delivered shard %d diverged from its first reply", i)
		}
	}
}
