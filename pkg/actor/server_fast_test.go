package actor_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/greenhpc/actor/pkg/actor"
)

// This file pins the serving path's two contracts. Responses: every served
// byte equals what encoding/json would have written for the in-process
// answer. Requests: the strict v1 grammar of docs/SERVING.md — one row of
// TestV1GrammarRejections per row of its rejection table, and one-way
// fuzzers asserting that nothing panics, every rejection is a well-formed
// error reply, and everything accepted means what encoding/json says it
// means. encoding/json is the reference here and only here; the server
// itself never decodes with it.

const maxBody = 1 << 20

// stdlibJSON renders v the way the wire Emitter must: json.Encoder with a
// one-space indent, HTML escaping and a trailing newline.
func stdlibJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// strictDecode is the reference decoder: encoding/json with unknown fields
// rejected.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func postBytes(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// checkReply asserts the reply-shape half of the contract for one fuzzed
// request: a documented status, and on anything but 200 a body that is
// exactly one {"error": "<non-empty>"} object. A 500 is only ever the
// non-finite-prediction reply. It reports whether the request was served.
func checkReply(t *testing.T, body []byte, rec *httptest.ResponseRecorder) bool {
	t.Helper()
	switch rec.Code {
	case http.StatusOK:
		return true
	case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge, http.StatusInternalServerError:
	default:
		t.Fatalf("undocumented status %d for %q: %s", rec.Code, body, rec.Body)
	}
	var reply struct {
		Error string `json:"error"`
	}
	if err := strictDecode(rec.Body.Bytes(), &reply); err != nil || reply.Error == "" {
		t.Fatalf("status %d for %q without a well-formed error body (%v): %q", rec.Code, body, err, rec.Body)
	}
	if rec.Code == http.StatusInternalServerError && !strings.HasPrefix(reply.Error, "encoding response:") {
		t.Fatalf("500 for %q is not the non-finite-prediction reply: %q", body, reply.Error)
	}
	return false
}

// FuzzPredictServedParity feeds arbitrary bodies to /v1/predict. Whatever
// the server accepts, encoding/json must decode to a request whose
// in-process prediction, stdlib-encoded, is byte for byte what was served.
func FuzzPredictServedParity(f *testing.F) {
	_, bank := servingFixture(f)
	srv := newTestServer(f)
	f.Add([]byte(`{"phase":"x_solve","rates":{"IPC":1.1,"INST_RETIRED":0.5}}`))
	f.Add([]byte(`{"PHASE":"p","RATES":{"IPC":2}}`))
	f.Add([]byte(`{"rates":{"IPC":1},"rates":{"IPC":3}}`))
	f.Add([]byte(`{"rates":{"IPC":null}}`))
	f.Add([]byte(`{"rates":null,"phase":null}`))
	f.Add([]byte(`{"rates":{"IPC":1e309}}`))
	f.Add([]byte(`{"rates":{"NOT_AN_EVENT":1}}`))
	f.Add([]byte(`{"rates":{"IPC":1,"IPC":2},"phase":"\u2028"}`))
	f.Add([]byte(`{"rates": nope}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{} trailing`))
	f.Add([]byte(`{"rate":{"IPC":1}}`))
	f.Add([]byte(` {"phase":"<\u0041>","rates":{"IPC":1.25,"L2_LINES_IN":3e-3}} `))
	f.Add([]byte(`{"rates":{"IPC":1e308,"BUS_TRANS_MEM":1e308}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<16 {
			return // the cap is pinned by TestServerPredictOversize
		}
		got := postBytes(srv, "/v1/predict", body)
		if !checkReply(t, body, got) {
			return
		}
		var req actor.PredictRequest
		if err := strictDecode(body, &req); err != nil {
			t.Fatalf("served %q, which encoding/json rejects: %v", body, err)
		}
		ranked, err := bank.Predict(context.Background(), req.Rates)
		if err != nil {
			t.Fatalf("served %q, which Bank.Predict rejects: %v", body, err)
		}
		want := stdlibJSON(t, actor.PredictResponse{Phase: req.Phase, Best: ranked[0].Config, Predictions: ranked})
		if !bytes.Equal(got.Body.Bytes(), want) {
			t.Fatalf("served body differs from the in-process answer for %q:\nserved: %q\nwant:   %q", body, got.Body, want)
		}
	})
}

// FuzzSweepServedParity is the same contract for /v1/sweep.
func FuzzSweepServedParity(f *testing.F) {
	eng, _ := servingFixture(f)
	srv := newTestServer(f)
	f.Add([]byte(`{"bench":"SP"}`))
	f.Add([]byte(`{"bench":"SP","phases":["x_solve"]}`))
	f.Add([]byte(`{"BENCH":"CG","phases":[null]}`))
	f.Add([]byte(`{"bench":"NOPE"}`))
	f.Add([]byte(`{"bench":"SP","phases":["nope"]}`))
	f.Add([]byte(`{"phases":["a"],"phases":["b","c"]}`))
	f.Add([]byte(`{"bench":null}`))
	f.Add([]byte(`{"bench":"SP","extra":1}`))
	f.Add([]byte(`[1,2]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<16 {
			return
		}
		got := postBytes(srv, "/v1/sweep", body)
		if !checkReply(t, body, got) {
			return
		}
		var req actor.SweepRequest
		if err := strictDecode(body, &req); err != nil {
			t.Fatalf("served %q, which encoding/json rejects: %v", body, err)
		}
		sweeps, err := eng.Sweep(context.Background(), req)
		if err != nil {
			t.Fatalf("served %q, which Engine.Sweep rejects: %v", body, err)
		}
		if want := stdlibJSON(t, actor.SweepResponse{Sweeps: sweeps}); !bytes.Equal(got.Body.Bytes(), want) {
			t.Fatalf("served sweep differs from the in-process answer for %q:\nserved: %q\nwant:   %q", body, got.Body, want)
		}
	})
}

// FuzzEvalDecodeParity is the same contract for /v1/eval: rejections (400
// from the grammar, 409 from shard validation) are well-formed, and a
// served shard is one encoding/json reads as a self-consistent request.
func FuzzEvalDecodeParity(f *testing.F) {
	eng, _ := servingFixture(f)
	srv := newTestServer(f)
	f.Add([]byte(`{"seed":"not a number"}`))
	f.Add([]byte(`{"units":[{"bench":1}]}`))
	f.Add([]byte(`{"shard":{"index":1.5}}`))
	f.Add([]byte(`{"nope":1}`))
	f.Add([]byte(`{"units":[{"bench":"SP","phases":["x"]}],"seed":0}`))
	units := eng.Workload()[:1]
	valid, err := json.Marshal(actor.EvalRequest{
		Topology: eng.TopologyDesc(), Seed: eng.Seed(), BankVersion: actor.BankVersion, Units: units,
		Shard: actor.ShardSpec{Total: 1, Fingerprint: actor.ShardFingerprint(eng.TopologyDesc(), eng.Seed(), units)},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<16 {
			return
		}
		got := postBytes(srv, "/v1/eval", body)
		if !checkReply(t, body, got) {
			return
		}
		var req actor.EvalRequest
		if err := strictDecode(body, &req); err != nil {
			t.Fatalf("served %q, which encoding/json rejects: %v", body, err)
		}
		var resp actor.EvalResponse
		if err := strictDecode(got.Body.Bytes(), &resp); err != nil {
			t.Fatalf("unreadable eval reply for %q: %v", body, err)
		}
		if resp.Fingerprint != req.Fingerprint() || len(resp.Sweeps) < len(req.Units) {
			t.Fatalf("served shard %q inconsistently: fingerprint %q (want %q), %d sweeps for %d units",
				body, resp.Fingerprint, req.Fingerprint(), len(resp.Sweeps), len(req.Units))
		}
	})
}

// TestV1GrammarRejections has one row per line of the rejection table in
// docs/SERVING.md ("Wire contract (v1)"), asserting the exact status and
// error string on every route the row applies to.
func TestV1GrammarRejections(t *testing.T) {
	srv := newTestServer(t)
	const predict, sweep, eval = "/v1/predict", "/v1/sweep", "/v1/eval"
	all := []string{predict, sweep, eval}
	pad := func(body string, n int) string { return body + strings.Repeat(" ", n-len(body)) }
	cases := []struct {
		name   string
		routes []string
		body   string
		code   int
		reason string // the reply is {"error": "bad payload: <reason>"}
	}{
		// Framing.
		{"cap+1 bytes", all, pad(`{"rates":{"IPC":1}}`, maxBody+1), 413, `body exceeds 1048576 bytes`},
		{"empty body", all, ``, 400, `body must be one JSON object`},
		{"top-level null", all, `null`, 400, `body must be one JSON object`},
		{"top-level array", all, `[1,2]`, 400, `body must be one JSON object`},
		{"truncated object", all, `{`, 400, `malformed JSON`},
		{"missing colon", all, `{"a" 1}`, 400, `malformed JSON`},
		{"bad key escape", all, `{"\q":1}`, 400, `malformed JSON`},
		{"missing comma", []string{sweep}, `{"bench":"SP" "phases":[]}`, 400, `malformed JSON`},
		{"trailing garbage", []string{predict}, `{"rates":{"IPC":1}} trailing`, 400, `trailing data after the JSON object`},
		{"second value", []string{sweep}, `{"bench":"SP"}{}`, 400, `trailing data after the JSON object`},
		{"trailing after eval", []string{eval}, `{"seed":1}x`, 400, `trailing data after the JSON object`},
		// Keys.
		{"unknown key", all, `{"nope":1}`, 400, `unknown field "nope"`},
		{"case-variant key", []string{predict}, `{"RATES":{"IPC":2}}`, 400, `unknown field "RATES"`},
		{"case-variant key", []string{sweep}, `{"Bench":"SP"}`, 400, `unknown field "Bench"`},
		{"case-variant key", []string{eval}, `{"SEED":12}`, 400, `unknown field "SEED"`},
		{"unknown shard key", []string{eval}, `{"shard":{"Index":1}}`, 400, `unknown field "Index"`},
		{"unknown unit key", []string{eval}, `{"units":[{"bench":"SP","extra":1}]}`, 400, `unknown field "extra"`},
		{"duplicate key", []string{predict}, `{"rates":{"IPC":1},"rates":{"IPC":3}}`, 400, `duplicate field "rates"`},
		{"duplicate key", []string{sweep}, `{"phases":["a"],"phases":["b","c"]}`, 400, `duplicate field "phases"`},
		{"duplicate key", []string{eval}, `{"units":[{"bench":"a"}],"units":[{"bench":"c"}]}`, 400, `duplicate field "units"`},
		{"duplicate shard key", []string{eval}, `{"shard":{"total":1,"total":1}}`, 400, `duplicate field "total"`},
		{"duplicate escaped key", []string{sweep}, `{"bench":"SP","\u0062ench":"CG"}`, 400, `duplicate field "bench"`},
		// Types; null is a type error at every position.
		{"null phase", []string{predict}, `{"phase":null,"rates":{"IPC":1}}`, 400, `"phase" must be a string`},
		{"null rates", []string{predict}, `{"rates":null}`, 400, `"rates" must be an object`},
		{"rates not an object", []string{predict}, `{"rates": nope}`, 400, `"rates" must be an object`},
		{"null rate", []string{predict}, `{"rates":{"IPC":null}}`, 400, `rate "IPC" must be a finite number`},
		{"string rate", []string{predict}, `{"rates":{"IPC":"1"}}`, 400, `rate "IPC" must be a finite number`},
		{"overflowing rate", []string{predict}, `{"rates":{"IPC":1e309}}`, 400, `rate "IPC" must be a finite number`},
		{"null bench", []string{sweep}, `{"bench":null}`, 400, `"bench" must be a string`},
		{"numeric bench", []string{sweep}, `{"bench":1}`, 400, `"bench" must be a string`},
		{"null phases", []string{sweep}, `{"bench":"SP","phases":null}`, 400, `"phases" must be an array of strings`},
		{"null phase element", []string{sweep}, `{"bench":"CG","phases":[null]}`, 400, `"phases" must be an array of strings`},
		{"null topology", []string{eval}, `{"topology":null}`, 400, `"topology" must be a string`},
		{"null seed", []string{eval}, `{"seed":null}`, 400, `"seed" must be an integer`},
		{"string seed", []string{eval}, `{"seed":"not a number"}`, 400, `"seed" must be an integer`},
		{"fractional seed", []string{eval}, `{"seed":1.5}`, 400, `"seed" must be an integer`},
		{"out-of-range seed", []string{eval}, `{"seed":9223372036854775808}`, 400, `"seed" must be an integer`},
		{"exponent bank_version", []string{eval}, `{"bank_version":1e2}`, 400, `"bank_version" must be an integer`},
		{"null shard", []string{eval}, `{"shard":null}`, 400, `"shard" must be an object`},
		{"fractional shard index", []string{eval}, `{"shard":{"index":1.5}}`, 400, `"index" must be an integer`},
		{"null shard total", []string{eval}, `{"shard":{"total":null}}`, 400, `"total" must be an integer`},
		{"null fingerprint", []string{eval}, `{"shard":{"fingerprint":null}}`, 400, `"fingerprint" must be a string`},
		{"null units", []string{eval}, `{"units":null}`, 400, `"units" must be an array of objects`},
		{"null unit", []string{eval}, `{"units":[null]}`, 400, `"units" must be an array of objects`},
		{"unit bench not a string", []string{eval}, `{"units":[{"bench":1}]}`, 400, `"bench" must be a string`},
		// Route rules.
		{"rates missing", []string{predict}, `{"phase":"x"}`, 400, `"rates" is required and must be non-empty`},
		{"rates empty", []string{predict}, `{"rates":{}}`, 400, `"rates" is required and must be non-empty`},
		{"unknown event, first in document order", []string{predict}, `{"rates":{"ZZ_LATER":1,"IPC":1,"AA_EARLIER":1}}`, 400, `unknown event "ZZ_LATER"`},
		{"duplicate event", []string{predict}, `{"rates":{"IPC":1,"IPC":2}}`, 400, `duplicate event "IPC"`},
		{"alias collision", []string{predict}, `{"rates":{"IPC":1.1,"INST_RETIRED":0.5}}`, 400, `"IPC" and "INST_RETIRED" name the same event`},
		{"bench missing", []string{sweep}, `{}`, 400, `"bench" is required`},
		{"units missing", []string{eval}, `{"seed":1}`, 400, `"units" is required and must be non-empty`},
		{"units empty", []string{eval}, `{"units":[]}`, 400, `"units" is required and must be non-empty`},
	}
	for _, tc := range cases {
		for _, route := range tc.routes {
			t.Run(tc.name+route, func(t *testing.T) {
				rec := postBytes(srv, route, []byte(tc.body))
				want := stdlibJSON(t, map[string]string{"error": "bad payload: " + tc.reason})
				if rec.Code != tc.code || !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("%.60q\n got %d %q\nwant %d %q", tc.body, rec.Code, rec.Body, tc.code, want)
				}
			})
		}
	}
	t.Run("body read error", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodPost, predict, iotest.ErrReader(io.ErrUnexpectedEOF))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		want := stdlibJSON(t, map[string]string{"error": "bad payload: reading body: unexpected EOF"})
		if rec.Code != http.StatusBadRequest || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("got %d %q, want 400 %q", rec.Code, rec.Body, want)
		}
	})
	// The cap itself is inclusive: a valid body of exactly 1 MiB is served.
	if rec := postBytes(srv, predict, []byte(pad(`{"rates":{"IPC":1}}`, maxBody))); rec.Code != http.StatusOK {
		t.Errorf("cap-sized predict = %d, want 200 (%s)", rec.Code, rec.Body)
	}
	if rec := postBytes(srv, sweep, []byte(pad(`{"bench":"SP"}`, maxBody))); rec.Code != http.StatusOK {
		t.Errorf("cap-sized sweep = %d, want 200 (%.80s)", rec.Code, rec.Body)
	}
}

// TestServerPredictMemoIdentity serves each request twice — a memo miss,
// then a hit — and requires both byte-identical to the stdlib encoding of
// the in-process prediction: the memo can never change served bytes.
func TestServerPredictMemoIdentity(t *testing.T) {
	_, bank := servingFixture(t)
	srv := newTestServer(t)
	var reqs []actor.PredictRequest
	for _, ipc := range []float64{0.25, 1.5, 1.5, 3.75} {
		reqs = append(reqs, actor.PredictRequest{Phase: "x_solve", Rates: testRates(bank, ipc)})
	}
	reqs = append(reqs, actor.PredictRequest{Rates: actor.Rates{"IPC": 1.25}})
	for _, req := range reqs {
		body, _ := json.Marshal(req)
		miss := postBytes(srv, "/v1/predict", body)
		hit := postBytes(srv, "/v1/predict", body)
		if miss.Code != http.StatusOK {
			t.Fatalf("predict = %d: %s", miss.Code, miss.Body)
		}
		if !bytes.Equal(miss.Body.Bytes(), hit.Body.Bytes()) {
			t.Errorf("memo hit served different bytes:\nmiss: %q\nhit:  %q", miss.Body, hit.Body)
		}
		ranked, err := bank.Predict(context.Background(), req.Rates)
		if err != nil {
			t.Fatal(err)
		}
		want := stdlibJSON(t, actor.PredictResponse{Phase: req.Phase, Best: ranked[0].Config, Predictions: ranked})
		if !bytes.Equal(miss.Body.Bytes(), want) {
			t.Errorf("served bytes differ from the in-process prediction:\nserved: %q\nwant:   %q", miss.Body, want)
		}
	}
}

// TestServerBankContentLength checks the precomputed /v1/bank response: an
// explicit, correct Content-Length and a body that encodes the engine's
// BankInfo. The server encodes it with encoding/json too, so this checks
// content; TestServedColdBytesPinned holds the bytes across commits.
func TestServerBankContentLength(t *testing.T) {
	srv := newTestServer(t)
	eng, bank := servingFixture(t)
	rec := do(t, srv, http.MethodGet, "/v1/bank", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("bank = %d: %s", rec.Code, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q, body is %d bytes", cl, rec.Body.Len())
	}
	want := stdlibJSON(t, actor.BankInfo{
		Meta:     bank.Meta(),
		Benches:  eng.BenchNames(),
		Topology: eng.TopologyDesc(),
	})
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("bank body differs from the stdlib encoding:\nserved: %q\nref:    %q", rec.Body, want)
	}
}

// TestServerPredictOversize pins the 1 MiB body cap: one byte more is the
// documented 413, whatever the body would have parsed to.
func TestServerPredictOversize(t *testing.T) {
	srv := newTestServer(t)
	huge := `{"rates":{"IPC":1},"phase":"` + strings.Repeat("a", maxBody) + `"}`
	got := postBytes(srv, "/v1/predict", []byte(huge))
	want := stdlibJSON(t, map[string]string{"error": "bad payload: body exceeds 1048576 bytes"})
	if got.Code != http.StatusRequestEntityTooLarge || !bytes.Equal(got.Body.Bytes(), want) {
		t.Errorf("oversize predict = %d %q, want 413 %q", got.Code, got.Body, want)
	}
	// Whitespace counts: a valid object padded past the cap is still a 413.
	padded := `{"rates":{"IPC":1}}` + strings.Repeat(" ", maxBody)
	if rec := postBytes(srv, "/v1/predict", []byte(padded)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("padded predict = %d, want 413 (%s)", rec.Code, rec.Body)
	}
}
