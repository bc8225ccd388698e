package actor

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/wire"
)

// Pinned sha256 of the served /v1/predict replies and of their memo keys
// for servedBodies on the seed-42 WithFast bank. Comparisons inside one
// build run the same code on both sides; these hold the bytes across
// commits and across the GOMAXPROCS × SIMD legs (scripts/determinism.sh).
// A change that moves either changes what actord serves or how it caches
// it: re-pin only with the reason in CHANGES.md.
const (
	servedRepliesSHA256 = "285389a2842499ca76803364b05c4d127b33d3b77927b8631b7688c450bdcb2e"
	servedKeysSHA256    = "8f3a0c5faec08846b6d07746bb92307db156faf2b11fb48c1a1d88b4609f61e7"
)

// servedBodies lists the pinned /v1/predict bodies, written by hand so the
// key order is the test's: the full event set, each reduced set, IPC only,
// the full set without IPC, the full set in reverse event-id order, and
// IPC under its alias "IPC" and under its mnemonic "INST_RETIRED".
func servedBodies(meta Meta) [][]byte {
	rate := func(e pmu.Event) string {
		return strconv.FormatFloat(0.0007*float64(int(e)*int(e)+3)+0.00013*float64(e), 'g', -1, 64)
	}
	body := func(phase, ipcKey string, events []pmu.Event) []byte {
		var b bytes.Buffer
		fmt.Fprintf(&b, `{"phase":%q,"rates":{`, phase)
		sep := ""
		if ipcKey != "" {
			fmt.Fprintf(&b, `%q:1.234567`, ipcKey)
			sep = ","
		}
		for _, e := range events {
			fmt.Fprintf(&b, `%s%q:%s`, sep, e.String(), rate(e))
			sep = ","
		}
		b.WriteString("}}")
		return b.Bytes()
	}
	var sets [][]pmu.Event
	for _, names := range meta.EventSets {
		var set []pmu.Event
		for _, n := range names {
			e, _ := pmu.EventByName(n)
			set = append(set, e)
		}
		sets = append(sets, set)
	}
	full := sets[0]
	var out [][]byte
	for i, set := range sets {
		out = append(out, body(fmt.Sprintf("set%d", i), "IPC", set))
	}
	byID := slices.Clone(full)
	slices.Sort(byID)
	slices.Reverse(byID)
	out = append(out,
		body("ipc_only", "IPC", nil),
		body("no_ipc", "", full),
		body("reverse", "IPC", byID),
		body("alias", "IPC", sets[len(sets)-1]),
		body("alias", "INST_RETIRED", sets[len(sets)-1]),
	)
	return out
}

// TestServedPredictBytesPinned serves servedBodies on an in-process Server
// and compares the sha256 of the replies, and of the memo keys the same
// bodies build, with the pins above.
func TestServedPredictBytesPinned(t *testing.T) {
	eng, err := New(WithFast())
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
	replies, keys := sha256.New(), sha256.New()
	for _, body := range servedBodies(srv.Bank().Meta()) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", body, rec.Code, rec.Body)
		}
		fmt.Fprintf(replies, "%d\n", rec.Body.Len())
		replies.Write(rec.Body.Bytes())

		sc := getPredictScratch()
		scan := wire.GetScanner(body)
		phase, err := decodePredictRequest(scan, body, sc)
		if err != nil {
			t.Fatal(err)
		}
		key := sc.buildMemoKey(srv.state.Load().gen, phase)
		fmt.Fprintf(keys, "%d\n", len(key))
		keys.Write(key)
		wire.PutScanner(scan)
		putPredictScratch(sc)
	}
	if got := hex.EncodeToString(replies.Sum(nil)); got != servedRepliesSHA256 {
		t.Errorf("served replies sha256 %s, pinned %s", got, servedRepliesSHA256)
	}
	if got := hex.EncodeToString(keys.Sum(nil)); got != servedKeysSHA256 {
		t.Errorf("memo keys sha256 %s, pinned %s", got, servedKeysSHA256)
	}
}

// servedColdSHA256 is the pinned sha256 of the cold bodies coldRequests
// gets from the seed-42 WithFast bank: /v1/bank, the health and readiness
// probes (ready and draining), both 405 bodies, one 400 and one 413. These
// bodies are encoded once per bank or once per process; the pin holds
// their bytes across commits whatever encodes them. Re-pin only with the
// reason in CHANGES.md.
const servedColdSHA256 = "80d2a75da8fda70fdfb10ebc1c9bf7f40957878057fc5d2ad91c7c3b60b10cf6"

// coldRequests lists the pinned cold requests in order; drain marks the
// point where the server begins draining, so the last readyz reads 503.
var coldRequests = []struct {
	method, path string
	body         []byte
	drain        bool
}{
	{method: http.MethodGet, path: "/v1/bank"},
	{method: http.MethodGet, path: "/healthz"},
	{method: http.MethodGet, path: "/readyz"},
	{method: http.MethodPost, path: "/healthz"},
	{method: http.MethodGet, path: "/v1/predict"},
	{method: http.MethodPost, path: "/v1/sweep", body: []byte(`{"bench":1}`)},
	{method: http.MethodPost, path: "/v1/predict", body: bytes.Repeat([]byte(" "), maxRequestBody+1)},
	{method: http.MethodGet, path: "/readyz", drain: true},
}

// TestServedColdBytesPinned serves coldRequests on an in-process Server
// and compares the sha256 of every status code, length and body with
// servedColdSHA256.
func TestServedColdBytesPinned(t *testing.T) {
	eng, err := New(WithFast())
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
	h := sha256.New()
	for _, req := range coldRequests {
		if req.drain {
			srv.BeginDrain()
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(req.method, req.path, bytes.NewReader(req.body)))
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s Content-Type %q", req.method, req.path, ct)
		}
		fmt.Fprintf(h, "%s %s %d %d\n", req.method, req.path, rec.Code, rec.Body.Len())
		h.Write(rec.Body.Bytes())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != servedColdSHA256 {
		t.Errorf("served cold bodies sha256 %s, pinned %s", got, servedColdSHA256)
	}
}
