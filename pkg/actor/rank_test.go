package actor

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// TestRankPredictionsTieBreak pins the ranking's determinism: equal-IPC
// configurations order by name, so the served ranking is a pure function of
// the prediction set — identical across input permutations, runs and
// GOMAXPROCS settings. The serving memo depends on this: a cached response
// must be the response the miss path would produce every time.
func TestRankPredictionsTieBreak(t *testing.T) {
	base := []Prediction{
		{Config: "4x2", IPC: 2.5},
		{Config: "2x4", IPC: 2.5},
		{Config: "1x8", IPC: 2.5},
		{Config: "8x1", IPC: 2.5, Observed: true},
		{Config: "2x2", IPC: 1.5},
		{Config: "1x1", IPC: 1.5},
		{Config: "1x2", IPC: 3.5},
	}
	want := []Prediction{
		{Config: "1x2", IPC: 3.5},
		{Config: "1x8", IPC: 2.5},
		{Config: "2x4", IPC: 2.5},
		{Config: "4x2", IPC: 2.5},
		{Config: "8x1", IPC: 2.5, Observed: true},
		{Config: "1x1", IPC: 1.5},
		{Config: "2x2", IPC: 1.5},
	}
	rng := rand.New(rand.NewSource(1))
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for trial := 0; trial < 64; trial++ {
		runtime.GOMAXPROCS(1 + trial%4)
		got := append([]Prediction(nil), base...)
		rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		rankPredictions(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ranking depends on input order:\ngot:  %+v\nwant: %+v", trial, got, want)
		}
	}
}
