package actor_test

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/greenhpc/actor/pkg/actor"
)

// testRates builds a rate map covering the bank's richest event set plus
// the observed IPC, with distinct values per event.
func testRates(b *actor.Bank, ipc float64) actor.Rates {
	r := actor.Rates{"IPC": ipc}
	for i, name := range b.Meta().EventSets[0] {
		r[name] = 0.001 * float64(i+1)
	}
	return r
}

// TestBankRoundTripANN trains a small ANN bank on the paper platform and
// checks that saving and loading it produces bit-identical predictions.
func TestBankRoundTripANN(t *testing.T) {
	eng, err := actor.New(
		actor.WithFast(),
		actor.WithFolds(3),
		actor.WithRepetitions(1),
		actor.WithMaxEpochs(8),
		actor.WithEventCounts(4, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bank, err := eng.Train(ctx)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bank.json")
	if err := bank.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := actor.LoadBank(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Meta(), bank.Meta()) {
		t.Errorf("metadata changed across the round trip:\nsaved:  %+v\nloaded: %+v", bank.Meta(), loaded.Meta())
	}
	for _, ipc := range []float64{0.4, 1.1, 2.7} {
		rates := testRates(bank, ipc)
		want, err := bank.Predict(ctx, rates)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Predict(ctx, rates)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("predictions changed across the round trip at IPC %g:\nsaved:  %+v\nloaded: %+v", ipc, want, got)
		}
	}
	// A second encode of the loaded bank must reproduce the bytes exactly.
	a, err := bank.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("re-encoding a loaded bank produced different bytes")
	}
}

// TestPredictorSelectionByCoverage checks that rates covering only a
// reduced event set are served by the matching reduced predictor — the
// paper's short-iteration fallback — rather than the richest predictor
// with zero-filled features.
func TestPredictorSelectionByCoverage(t *testing.T) {
	eng, err := actor.New(
		actor.WithFast(),
		actor.WithFolds(3),
		actor.WithRepetitions(1),
		actor.WithMaxEpochs(8),
		actor.WithEventCounts(4, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bank, err := eng.Train(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sets := bank.Meta().EventSets
	if len(sets) != 2 || len(sets[0]) != 4 || len(sets[1]) != 2 {
		t.Fatalf("event sets = %v, want a 4-set and a 2-set", sets)
	}
	// Rates covering exactly the reduced set…
	reduced := actor.Rates{"IPC": 1.0}
	for i, name := range sets[1] {
		reduced[name] = 0.002 * float64(i+1)
	}
	fromReduced, err := bank.Predict(ctx, reduced)
	if err != nil {
		t.Fatal(err)
	}
	// …versus the same values zero-padded to cover the rich set, which
	// forces the rich predictor. Different models ⇒ different outputs; if
	// selection ignored coverage the two calls would be identical.
	padded := actor.Rates{"IPC": 1.0}
	for _, name := range sets[0] {
		padded[name] = reduced[name] // absent reduced events read zero
	}
	fromRich, err := bank.Predict(ctx, padded)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(fromReduced, fromRich) {
		t.Error("reduced-set rates were served by the rich predictor (outputs identical)")
	}
	if got := bank.Select(1, 2); !reflect.DeepEqual(got, sets[1]) {
		t.Errorf("Select(1, 2) = %v, want the 2-event set %v", got, sets[1])
	}
}

// TestBankRoundTripHeteroMLR exercises the round trip on a heterogeneous
// ParseDesc topology with the MLR model family.
func TestBankRoundTripHeteroMLR(t *testing.T) {
	eng, err := actor.New(
		actor.WithTopology("1x2+1x2:little"),
		actor.WithFast(),
		actor.WithRepetitions(1),
		actor.WithMLR(),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bank, err := eng.Train(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := bank.Meta().Topology; got != "1x2+1x2:little" {
		t.Fatalf("bank topology descriptor = %q, want the training descriptor", got)
	}
	if got := bank.Meta().Kind; got != actor.KindMLR {
		t.Fatalf("bank kind = %q, want %q", got, actor.KindMLR)
	}
	data, err := bank.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := actor.DecodeBank(data)
	if err != nil {
		t.Fatal(err)
	}
	rates := testRates(bank, 0.9)
	want, err := bank.Predict(ctx, rates)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Predict(ctx, rates)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hetero predictions changed across the round trip:\nsaved:  %+v\nloaded: %+v", want, got)
	}
	// The loaded bank rebuilds a serving engine on its own topology.
	served, err := actor.ForBank(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if served.TopologyDesc() != "1x2+1x2:little" {
		t.Errorf("ForBank engine topology = %q", served.TopologyDesc())
	}
}

// TestTrainDeterministic checks that two engines built from the same seed
// produce byte-identical banks — the property that makes saved banks
// reproducible artifacts.
func TestTrainDeterministic(t *testing.T) {
	encode := func() []byte {
		eng, err := actor.New(actor.WithFast(), actor.WithRepetitions(1), actor.WithMLR(), actor.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		bank, err := eng.Train(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		data, err := bank.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(encode(), encode()) {
		t.Error("two trainings under the same seed produced different banks")
	}
}

// net16 renders one [2, 16, 1] bank member — the one network shape: every
// hidden unit weighs the two features w0 and w1 with bias 0, and the output
// unit weighs every hidden unit 1/16 with bias outBias.
func net16(w0, w1, outBias string) string {
	return `{"sizes":[2,16,1],"weights":[[` + strings.Repeat(w0+","+w1+",0,", 15) + w0 + "," + w1 + `,0],[` +
		strings.Repeat("0.0625,", 16) + outBias + `]]}`
}

// decodeBankRejects lists payloads DecodeBank must refuse, each with a
// fragment its error must carry. FuzzDecodeBank seeds from the same rows.
func decodeBankRejects() []struct{ name, data, want string } {
	// annBank is a one-predictor, one-target ANN bank around the given
	// two-feature scaler vectors and member networks.
	annBank := func(mean, std, nets string) string {
		return `{"format":"actor-bank","version":1,"configs":["1","4"],"sample_config":"4",
			"predictors":[{"events":["L2_LINES_IN"],"ann":{"1":{"scaler":{"mean":` + mean + `,"std":` + std + `,"ymin":0,"ymax":1},
			"nets":` + nets + `}}}]}`
	}
	return []struct{ name, data, want string }{
		{"not JSON", `weights go here`, "not a bank file"},
		{"wrong magic", `{"format":"parquet","version":1}`, "not an ACTOR bank"},
		{"missing version", `{"format":"actor-bank"}`, "no valid format version"},
		{"future version", `{"format":"actor-bank","version":99}`, "newer than the supported version"},
		{"bad topology", `{"format":"actor-bank","version":1,"topology":{"desc":"not-a-desc"}}`, "topology"},
		{"no configs", `{"format":"actor-bank","version":1}`, "no configurations"},
		{"sample outside space", `{"format":"actor-bank","version":1,"configs":["1","4"],"sample_config":"9"}`, "not in its configuration space"},
		{"no predictors", `{"format":"actor-bank","version":1,"configs":["1","4"],"sample_config":"4"}`, "no predictors"},
		{"unknown event", `{"format":"actor-bank","version":1,"configs":["1","4"],"sample_config":"4",
			"predictors":[{"events":["NO_SUCH_EVENT"],"mlr":{"1":[0.1,0.2]}}]}`, "unknown event"},
		{"empty predictor", `{"format":"actor-bank","version":1,"configs":["1","4"],"sample_config":"4",
			"predictors":[{"events":["L2_LINES_IN"]}]}`, "holds no models"},
		{"bad net shape", `{"format":"actor-bank","version":1,"configs":["1","4"],"sample_config":"4",
			"predictors":[{"events":["L2_LINES_IN"],"ann":{"1":{"scaler":{"mean":[0,0],"std":[1,1],"ymin":0,"ymax":1},
			"nets":[{"sizes":[2,16,1],"weights":[[0.1],[0.2]]}]}}}]}`, "weights"},
		{"scaler/net dim mismatch", `{"format":"actor-bank","version":1,"configs":["1","4"],"sample_config":"4",
			"predictors":[{"events":["L2_LINES_IN"],"ann":{"1":{"scaler":{"mean":[0,0,0],"std":[1,1,1],"ymin":0,"ymax":1},
			"nets":[` + net16("0.1", "0.2", "0.5") + `]}}}]}`, "does not match the scaler"},
		{"net with one layer size", annBank(`[0,0]`, `[1,1]`, `[{"sizes":[2],"weights":[]}]`), "exactly one hidden layer"},
		{"net layer count mismatch", annBank(`[0,0]`, `[1,1]`, `[{"sizes":[2,16,1],"weights":[]}]`), "0 weight layers for 3 layer sizes"},
		{"net unit count mismatch", annBank(`[0,0]`, `[1,1]`, `[{"sizes":[2,16,1],"weights":[[1,2,3],[1,2,3]]}]`), "layer 0 has 3 weights, want 48"},
		{"net short weight row", annBank(`[0,0]`, `[1,1]`, `[{"sizes":[2,16,1],"weights":[[`+strings.Repeat("1,2,3,", 15)+`1,2,3],[1,2]]}]`), "layer 1 has 2 weights, want 17"},
		{"empty ensemble", annBank(`[0,0]`, `[1,1]`, `[]`), "no member networks"},
		{"scaler mean/std mismatch", annBank(`[0,0]`, `[1]`, `[`+net16("1", "2", "0")+`]`), "mean/std length mismatch"},
		{"zero scaler std", annBank(`[0,0]`, `[1,0]`, `[`+net16("1", "2", "0")+`]`), `predictor 0 target "1": ann: scaler std[1] = 0`},
		{"negative scaler std", annBank(`[0,0]`, `[-1,1]`, `[`+net16("1", "2", "0")+`]`), `predictor 0 target "1": ann: scaler std[0] = -1`},
		{"inverted target range", `{"format":"actor-bank","version":1,"configs":["1","4"],"sample_config":"4",
			"predictors":[{"events":["L2_LINES_IN"],"ann":{"1":{"scaler":{"mean":[0,0],"std":[1,1],"ymin":2,"ymax":1},
			"nets":[` + net16("1", "2", "0") + `]}}}]}`, `predictor 0 target "1": ann: scaler target range is inverted`},
		{"overflowing weights", annBank(`[0,0]`, `[1,1]`, `[`+net16("1", "2", "1e308")+`,`+net16("1", "2", "1e308")+`]`), `predictor 0: target "1" predicts a non-finite IPC`},
		{"empty coefficient vector", `{"format":"actor-bank","version":1,"configs":["1","4"],"sample_config":"4",
			"predictors":[{"events":["L2_LINES_IN"],"mlr":{"1":[]}}]}`, "at least an intercept"},
		{"two hidden layers", annBank(`[0,0]`, `[1,1]`, `[{"sizes":[2,1,1,1],"weights":[[1,2,3],[1,0],[1,0]]}]`), `predictor 0 target "1" net 0: ann: layer sizes [2 1 1 1]: a network has exactly one hidden layer`},
		{"no hidden layer", annBank(`[0,0]`, `[1,1]`, `[{"sizes":[2,1],"weights":[[1,2,3]]}]`), `predictor 0 target "1" net 0: ann: layer sizes [2 1]: a network has exactly one hidden layer`},
		{"two-unit output layer", annBank(`[0,0]`, `[1,1]`, `[{"sizes":[2,1,2],"weights":[[1,2,3],[1,0,1,0]]}]`), "output layer of 2 units: a network has one linear output unit"},
		{"ensemble mixing widths", annBank(`[0,0]`, `[1,1]`, `[`+net16("1", "2", "0")+`,{"sizes":[2,2,1],"weights":[[1,2,3,1,2,3],[1,1,0]]}]`), `net 1: ann: hidden layer of 2 units: a network has 16 hidden units`},
		{"unknown kind", `{"format":"actor-bank","version":1,"kind":"banana","configs":["1","4"],"sample_config":"4",
			"predictors":[{"events":["L2_LINES_IN"],"mlr":{"1":[0.1,0.2]}}]}`, `bank kind "banana" is neither "ann" nor "mlr"`},
		{"MLR models in an ANN bank", `{"format":"actor-bank","version":1,"kind":"ann","configs":["1","4"],"sample_config":"4",
			"predictors":[{"events":["L2_LINES_IN"],"mlr":{"1":[0.1,0.2]}}]}`, `predictor 0 holds mlr models in a bank of kind "ann"`},
		{"ANN models in an MLR bank", strings.Replace(annBank(`[0,0]`, `[1,1]`, `[`+net16("1", "2", "0")+`]`), `"version":1,`, `"version":1,"kind":"mlr",`, 1),
			`predictor 0 holds ann models in a bank of kind "mlr"`},
		{"families mixed under an inferred kind", `{"format":"actor-bank","version":1,"configs":["1","4"],"sample_config":"4",
			"predictors":[{"events":["L2_LINES_IN"],"mlr":{"1":[0.1,0.2,0.3]}},{"events":[],"ann":{"1":{"scaler":{"mean":[0],"std":[1],"ymin":0,"ymax":1},"nets":[]}}}]}`,
			`predictor 1 holds ann models in a bank of kind "mlr"`},
		{"ANN target outside the configuration space", strings.Replace(annBank(`[0,0]`, `[1,1]`, `[`+net16("1", "2", "0")+`]`), `"ann":{"1":`, `"ann":{"9":`, 1),
			`predictor 0 target "9" is not in the bank's configuration space [1 4]`},
		{"MLR target outside the configuration space", `{"format":"actor-bank","version":1,"configs":["1","4"],"sample_config":"4",
			"predictors":[{"events":["L2_LINES_IN"],"mlr":{"1":[0.1,0.2],"9":[0.1,0.2]}}]}`, `predictor 0 target "9" is not in the bank's configuration space [1 4]`},
		{"hidden width other than 16", annBank(`[0,0]`, `[1,1]`, `[{"sizes":[2,8,1],"weights":[[`+strings.Repeat("1,2,3,", 7)+`1,2,3],[`+strings.Repeat("1,", 8)+`0]]}]`), `net 0: ann: hidden layer of 8 units: a network has 16 hidden units`},
	}
}

// TestDecodeBankRejects checks that malformed, foreign, future-versioned
// and unservable payloads are rejected with descriptive errors.
func TestDecodeBankRejects(t *testing.T) {
	cases := decodeBankRejects()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := actor.DecodeBank([]byte(tc.data))
			if err == nil {
				t.Fatalf("decode accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestAttachBankMismatch checks that a bank cannot be attached to an engine
// modelling a different machine.
func TestAttachBankMismatch(t *testing.T) {
	hetero, err := actor.New(actor.WithTopology("1x2+1x2:little"), actor.WithFast(), actor.WithRepetitions(1), actor.WithMLR())
	if err != nil {
		t.Fatal(err)
	}
	bank, err := hetero.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	paper, err := actor.New(actor.WithFast())
	if err != nil {
		t.Fatal(err)
	}
	if err := paper.AttachBank(bank); err == nil {
		t.Fatal("attached a hetero bank to the paper-platform engine")
	} else if !strings.Contains(err.Error(), "topology") {
		t.Errorf("mismatch error %q does not mention the topology", err)
	}
}

// TestPredictRatesOrderIndependent pins Rates resolution against Go's map
// iteration order: with two unknown mnemonics the error always names the
// first in sorted order, and naming one event twice through its "IPC" alias
// is always an error rather than whichever value the map visited last.
func TestPredictRatesOrderIndependent(t *testing.T) {
	_, bank := servingFixture(t)
	cases := []struct {
		rates actor.Rates
		want  string
	}{
		{actor.Rates{"IPC": 1, "ZZ_UNKNOWN": 1, "AA_UNKNOWN": 1, "MM_UNKNOWN": 1}, `unknown event "AA_UNKNOWN"`},
		{actor.Rates{"IPC": 1.1, "INST_RETIRED": 0.5}, `"INST_RETIRED" and "IPC" name the same event`},
	}
	for _, tc := range cases {
		for i := 0; i < 64; i++ {
			_, err := bank.Predict(context.Background(), tc.rates)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run %d: Predict(%v) error = %v, want one mentioning %s", i, tc.rates, err, tc.want)
			}
		}
	}
}

// TestPredictRefusesNonFiniteRates holds Bank.Predict to the wire's rule: a
// rate that is NaN or ±Inf is refused with /v1/predict's reason, whether it
// is the IPC or an event rate, instead of ranking a non-finite IPC.
func TestPredictRefusesNonFiniteRates(t *testing.T) {
	_, bank := servingFixture(t)
	event := bank.Meta().EventSets[0][0]
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, key := range []string{"IPC", event} {
			rates := testRates(bank, 1.2)
			rates[key] = v
			ranked, err := bank.Predict(context.Background(), rates)
			want := `rate "` + key + `" must be a finite number`
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Predict with %s = %v: ranking %v, error %v; want one mentioning %s", key, v, ranked, err, want)
			}
		}
	}
}

// TestPredictRefusesOverflowingRates: finite rates so large that a model's
// arithmetic overflows give an error naming the non-finite prediction, on
// the ANN bank and the MLR bank alike, instead of a ranking with NaNs in
// it. Rates two hundred orders of magnitude past any counter still rank.
func TestPredictRefusesOverflowingRates(t *testing.T) {
	_, mlr := servingFixture(t)
	_, ann := annFixture(t)
	for _, bank := range []*actor.Bank{ann, mlr} {
		at := func(v float64) actor.Rates {
			rates := actor.Rates{"IPC": 1.2}
			for _, name := range bank.Meta().EventSets[0] {
				rates[name] = v
			}
			return rates
		}
		kind := bank.Meta().Kind
		ranked, err := bank.Predict(context.Background(), at(1.7e308))
		if err == nil || !strings.Contains(err.Error(), "non-finite IPC") {
			t.Errorf("%s bank at 1.7e308: ranking %v, error %v; want a non-finite IPC error", kind, ranked, err)
		}
		if ranked, err := bank.Predict(context.Background(), at(1e300)); err != nil {
			t.Errorf("%s bank at 1e300: ranking %v, error %v", kind, ranked, err)
		}
	}
}

// TestBankPredictAllocs pins Bank.Predict's allocations: the ranking the
// caller keeps and the per-target values behind it. Resolving the rates
// allocates nothing.
func TestBankPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	_, bank := annFixture(t)
	rates := testRates(bank, 1.2)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := bank.Predict(ctx, rates); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("Bank.Predict allocates %v objects per call, want 2", allocs)
	}
}
