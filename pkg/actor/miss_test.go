package actor_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/greenhpc/actor/pkg/actor"
)

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// The miss-path tests share one engine + small ANN bank: unlike the HTTP
// tests next door, what they pin is the ANN inference path.
var (
	annOnce sync.Once
	annEng  *actor.Engine
	annBank *actor.Bank
	annErr  error
)

func annFixture(t testing.TB) (*actor.Engine, *actor.Bank) {
	t.Helper()
	annOnce.Do(func() {
		annEng, annErr = actor.New(actor.WithFast(), actor.WithRepetitions(1), actor.WithMaxEpochs(8))
		if annErr != nil {
			return
		}
		annBank, annErr = annEng.Train(context.Background())
	})
	if annErr != nil {
		t.Fatal(annErr)
	}
	return annEng, annBank
}

// rewindBody and discardWriter let a test drive ServeHTTP in a loop without
// allocating anything of its own.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestServePredictMissAllocs pins the miss path's allocation budget: a
// /v1/predict request the memo has never seen allocates the three objects
// the memo retains for it — entry, key, body — and nothing in decode,
// inference, ranking or emit. With recalibration on, the miss also computes
// the predictor-disagreement proxy inside the same budget.
func TestServePredictMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	eng, bank := annFixture(t)
	body, err := json.Marshal(actor.PredictRequest{Phase: "x_solve", Rates: testRates(bank, 1)})
	if err != nil {
		t.Fatal(err)
	}
	const ipc = `"IPC":1`
	body = bytes.Replace(body, []byte(ipc), []byte(ipc+".000000"), 1)
	digits := body[bytes.Index(body, []byte(ipc))+len(ipc)+1:][:6]

	for _, recal := range []bool{false, true} {
		srv, err := actor.NewServer(eng)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if recal {
			if _, err := srv.EnableRecalibration(actor.RecalConfig{}); err != nil {
				t.Fatal(err)
			}
		}
		rdr := &rewindBody{}
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
		req.Body = rdr
		w := &discardWriter{h: make(http.Header)}
		n := 0
		allocs := testing.AllocsPerRun(200, func() {
			n++
			for d, v := len(digits)-1, n; d >= 0; d, v = d-1, v/10 {
				digits[d] = '0' + byte(v%10)
			}
			rdr.Reset(body)
			srv.ServeHTTP(w, req)
		})
		if w.code != http.StatusOK {
			t.Fatalf("recal=%v: predict = %d", recal, w.code)
		}
		if allocs > 3 {
			t.Errorf("recal=%v: a predict miss allocates %.1f objects, want ≤ 3 (the memo entry, its key and its body)", recal, allocs)
		}
	}
}

// FuzzDecodeBank feeds arbitrary bytes to DecodeBank. It must never panic,
// and whatever it accepts must be a bank that can be used: it re-encodes
// into bytes that decode again to the same encoding, and it ranks every
// configuration with a finite IPC for a rate vector at the origin.
func FuzzDecodeBank(f *testing.F) {
	eng, err := actor.New(actor.WithFast(), actor.WithFolds(3), actor.WithRepetitions(1),
		actor.WithMaxEpochs(8), actor.WithEventCounts(4, 2))
	if err != nil {
		f.Fatal(err)
	}
	trained, err := eng.Train(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	seed, err := trained.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// A bank small enough for the mutator to keep valid: a stacked
	// two-member ANN predictor and a reduced MLR predictor.
	f.Add([]byte(`{"format":"actor-bank","version":1,"configs":["1","4"],"sample_config":"4","predictors":[
		{"events":["L2_LINES_IN"],"ann":{"1":{"scaler":{"mean":[1,0.01],"std":[0.5,0.02],"ymin":0.2,"ymax":3},"estimate_mse":0.01,"nets":[
			` + net16("0.1", "-0.2", "0.3") + `,
			` + net16("-0.3", "0.2", "0.1") + `]}}},
		{"events":[],"mlr":{"1":[0.5,0.25]}}]}`))
	for _, tc := range decodeBankRejects() {
		f.Add([]byte(tc.data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		bank, err := actor.DecodeBank(data)
		if err != nil {
			return
		}
		enc, err := bank.Encode()
		if err != nil {
			t.Fatalf("accepted bank does not encode: %v", err)
		}
		again, err := actor.DecodeBank(enc)
		if err != nil {
			t.Fatalf("re-encoded bank is rejected: %v\n%s", err, enc)
		}
		if enc2, err := again.Encode(); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not stable across a round trip (%v)", err)
		}
		ranked, err := bank.Predict(context.Background(), actor.Rates{"IPC": 0})
		if err != nil || len(ranked) == 0 {
			t.Fatalf("accepted bank cannot predict: %v (%d predictions)", err, len(ranked))
		}
		for _, p := range ranked {
			if math.IsNaN(p.IPC) || math.IsInf(p.IPC, 0) {
				t.Fatalf("accepted bank predicts %v for %q at the origin", p.IPC, p.Config)
			}
		}
	})
}
