package actor

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/greenhpc/actor/internal/recal"
	"github.com/greenhpc/actor/internal/wire"
)

// stdlibBytes renders v with json.Encoder, SetIndent("", " "), HTML
// escaping on and a trailing newline. Every encode test in this file
// compares the wire codec against this reference.
func stdlibBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// emit renders build's document to a fresh byte slice.
func emit(build func(e *wire.Emitter)) ([]byte, error) {
	e := wire.GetEmitter()
	defer wire.PutEmitter(e)
	build(e)
	body, err := e.Finish()
	return append([]byte(nil), body...), err
}

func wireBytes(t *testing.T, build func(e *wire.Emitter)) []byte {
	t.Helper()
	body, err := emit(build)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func checkBytes(t *testing.T, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("wire encoding differs from encoding/json:\nwire:   %q\nstdlib: %q", got, want)
	}
}

// nastyStrings exercises every escape class of the string encoder: HTML
// escapes, control characters, multibyte runes, U+2028/U+2029 and invalid
// UTF-8.
var nastyStrings = []string{
	"",
	"plain",
	`quote " backslash \ slash /`,
	"<script>&amp;</script>",
	"tabs\tnewlines\nreturns\r",
	"nul\x00bel\x07unit\x1f",
	"héllo, 世界",
	"line\u2028para\u2029sep",
	"bad\xffutf8\xc3(",
	"truncated\xe2\x82",
}

func TestEncodePredictResponseMatchesStdlib(t *testing.T) {
	preds := [][]Prediction{
		{{Config: "4x2", IPC: 1.25}},
		{
			{Config: "4x2", IPC: 3.0000000000000004},
			{Config: "2x2", IPC: 2.5, Observed: true},
			{Config: "1x1", IPC: 1e-7},
			{Config: "1x2", IPC: 1e21},
			{Config: "2x1", IPC: -5e-324},
			{Config: "zero", IPC: 0},
			{Config: "negzero", IPC: math.Copysign(0, -1)},
		},
	}
	phases := append([]string{"x_solve"}, nastyStrings...)
	for _, ps := range preds {
		for _, phase := range phases {
			got := wireBytes(t, func(e *wire.Emitter) { encodePredictResponse(e, []byte(phase), ps) })
			want := stdlibBytes(t, PredictResponse{Phase: phase, Best: ps[0].Config, Predictions: ps})
			checkBytes(t, got, want)
		}
	}
}

func TestEncodeSweepResponseMatchesStdlib(t *testing.T) {
	cases := [][]PhaseSweep{
		nil,
		{},
		{{Bench: "SP", Phase: "x_solve", Rows: nil}},
		{{Bench: "SP", Phase: "x_solve", Rows: []SweepRow{}}},
		{
			{Bench: "SP", Phase: nastyStrings[8], Rows: []SweepRow{
				{Config: "4x2", TimeSec: 12.5, AggIPC: 1.1},
				{Config: "2x2", TimeSec: 1e-9, AggIPC: 4e21},
			}},
			{Bench: "CG", Phase: "conj_grad", Rows: []SweepRow{{}}},
		},
	}
	for _, sweeps := range cases {
		got := wireBytes(t, func(e *wire.Emitter) { encodeSweepResponse(e, sweeps) })
		want := stdlibBytes(t, SweepResponse{Sweeps: sweeps})
		checkBytes(t, got, want)

		got = wireBytes(t, func(e *wire.Emitter) { encodeEvalResponse(e, "deadbeef", sweeps) })
		want = stdlibBytes(t, EvalResponse{Fingerprint: "deadbeef", Sweeps: sweeps})
		checkBytes(t, got, want)
	}
}

// TestEncodeNaNWithholdsBody pins the all-or-nothing failure mode on both
// encoders: a NaN anywhere in a response withholds every byte of it, and
// the client gets a 500 with a JSON error body instead — never headers
// without a body. The hot case is a sweep reply on the Emitter; the cold
// case is GET /v1/recal/status with a NaN in its event log, on
// encoding/json.
func TestEncodeNaNWithholdsBody(t *testing.T) {
	nan := func(e *wire.Emitter) {
		encodeSweepResponse(e, []PhaseSweep{{Bench: "SP", Rows: []SweepRow{{AggIPC: math.NaN()}}}})
	}
	if _, err := emit(nan); err == nil {
		t.Fatal("encoding a NaN succeeded; json.Encoder refuses it")
	}
	rec := httptest.NewRecorder()
	writeWire(rec, http.StatusOK, nan)
	want := stdlibBytes(t, errorReply{"encoding response: " + wire.ErrUnsupportedValue.Error()})
	if rec.Code != http.StatusInternalServerError || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("NaN response = %d %q, want 500 %q", rec.Code, rec.Body, want)
	}

	eng, err := New(WithFast(), WithRepetitions(1), WithMLR())
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
	r, err := srv.EnableRecalibration(RecalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	r.recordLocked(recal.Event{Kind: "rejected", CandidateErr: math.NaN()})
	r.mu.Unlock()
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/recal/status", nil))
	want = stdlibBytes(t, errorReply{"encoding response: json: unsupported value: NaN"})
	if rec.Code != http.StatusInternalServerError || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("NaN status = %d %q, want 500 %q", rec.Code, rec.Body, want)
	}
}

// FuzzEncodePredictResponse drives the composed response encoder with
// arbitrary strings and float bit patterns.
func FuzzEncodePredictResponse(f *testing.F) {
	f.Add("x_solve", "4x2", uint64(0x3ff0000000000000), true)
	f.Add("", "a\x00b", uint64(0x7fef_ffff_ffff_ffff), false)
	f.Add("p\xffq", "<&>", uint64(1), false)
	f.Fuzz(func(t *testing.T, phase, config string, bits uint64, observed bool) {
		ipc := math.Float64frombits(bits)
		preds := []Prediction{{Config: config, IPC: ipc, Observed: observed}}
		got, err := emit(func(e *wire.Emitter) { encodePredictResponse(e, []byte(phase), preds) })
		if math.IsNaN(ipc) || math.IsInf(ipc, 0) {
			if err == nil {
				t.Fatal("NaN/Inf encoded without error")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		want := stdlibBytes(t, PredictResponse{Phase: phase, Best: config, Predictions: preds})
		checkBytes(t, got, want)
	})
}

// --- decode parity ---

// stdlibDecode is the reference decoder: one value, unknown fields rejected.
func stdlibDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// FuzzDecodeSweepRequestParity is the one-way acceptance contract for
// /v1/sweep bodies: any input the grammar accepts must be one encoding/json
// also accepts, decoded to the identical struct. (The grammar rejects
// strictly more — case-variant and duplicate keys, nulls, trailing data.)
func FuzzDecodeSweepRequestParity(f *testing.F) {
	f.Add([]byte(`{"bench":"SP"}`))
	f.Add([]byte(`{"BENCH":"sp","phases":["a",null,"b"]}`))
	f.Add([]byte(`{"phases":null,"bench":"x","bench":"y"}`))
	f.Add([]byte(`{"phases":["a"],"phases":["b","c"]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Add([]byte(` { "bench" : "\u0053P" } trailing garbage`))
	f.Add([]byte(` { "phases" : [ ] , "bench" : "\u0053P" } `))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got SweepRequest
		if err := decodeSweepRequest(data, &got); err != nil {
			if err.Error() == "" {
				t.Fatalf("rejected %q without a reason", data)
			}
			return
		}
		var want SweepRequest
		if serr := stdlibDecode(data, &want); serr != nil {
			t.Fatalf("grammar accepted %q but encoding/json rejects it: %v", data, serr)
		}
		if got.Bench != want.Bench || !reflect.DeepEqual(normSlice(got.Phases), normSlice(want.Phases)) {
			t.Fatalf("decode mismatch for %q:\ngrammar: %+v\nstdlib:  %+v", data, got, want)
		}
	})
}

// FuzzDecodeEvalRequestParity is the same contract for /v1/eval bodies.
func FuzzDecodeEvalRequestParity(f *testing.F) {
	f.Add([]byte(`{"topology":"2s2c1t","seed":-7,"bank_version":3,` +
		`"shard":{"index":1,"total":4,"fingerprint":"ab"},` +
		`"units":[{"bench":"SP","phases":["x"]},null,{}]}`))
	f.Add([]byte(`{"SEED":12,"Shard":null,"units":null}`))
	f.Add([]byte(`{"seed":9007199254740993}`))
	f.Add([]byte(`{"units":[{"bench":"a"},{"bench":"b"}],"units":[{"bench":"c"}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"topology":"2s2c1t","seed":-7,"bank_version":3,` +
		`"shard":{"index":1,"total":4,"fingerprint":"ab"},` +
		`"units":[{"bench":"SP","phases":["x"]},{}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got EvalRequest
		if err := decodeEvalRequest(data, &got); err != nil {
			if err.Error() == "" {
				t.Fatalf("rejected %q without a reason", data)
			}
			return
		}
		var want EvalRequest
		if serr := stdlibDecode(data, &want); serr != nil {
			t.Fatalf("grammar accepted %q but encoding/json rejects it: %v", data, serr)
		}
		got.Units = normUnits(got.Units)
		want.Units = normUnits(want.Units)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode mismatch for %q:\ngrammar: %+v\nstdlib:  %+v", data, got, want)
		}
	})
}

// normSlice maps empty to nil: for `[]` the grammar yields a nil slice
// where the stdlib allocates an empty one. Handlers only ever len() and
// range request slices (they are never re-encoded), so the difference is
// unobservable; the parity check normalizes it away.
func normSlice(s []string) []string {
	if len(s) == 0 {
		return nil
	}
	return s
}

func normUnits(u []SweepRequest) []SweepRequest {
	if len(u) == 0 {
		return nil
	}
	out := make([]SweepRequest, len(u))
	for i := range u {
		out[i] = u[i]
		out[i].Phases = normSlice(u[i].Phases)
	}
	return out
}
