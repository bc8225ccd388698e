package exp

import (
	"runtime"
	"strings"
	"testing"
)

// renderEverything runs the full evaluation pipeline — leave-one-out
// training plus every figure driver — and returns the concatenated Render
// output.
func renderEverything(t *testing.T) string {
	t.Helper()
	s := newFastSuite(t)
	loo, err := s.TrainLeaveOneOut()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	f1, err := s.Fig1ExecutionTimes()
	if err != nil {
		t.Fatal(err)
	}
	f1.Render(&b)
	f3, err := s.Fig3PowerEnergy()
	if err != nil {
		t.Fatal(err)
	}
	f3.Render(&b)
	f6, f7, err := s.EvalPrediction(loo)
	if err != nil {
		t.Fatal(err)
	}
	f6.Render(&b)
	f7.Render(&b)
	f8, err := s.Fig8Throttling(loo)
	if err != nil {
		t.Fatal(err)
	}
	f8.Render(&b)
	return b.String()
}

// TestParallelPipelineDeterminism asserts the determinism contract of the
// parallel evaluation engine: training and every figure driver produce
// byte-identical Render output when the engine is pinned to one worker
// (GOMAXPROCS=1) and when it fans out across every core.
//
// The pipeline trains warm-started (FastOptions), so this covers the
// mini-batch GEMM pass and the shared base-model
// fine-tuning: a fixed shuffle fixes the batch partition, and per-task
// seeds fix every fold's stream, at any GOMAXPROCS.
func TestParallelPipelineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the leave-one-out pipeline twice")
	}
	if opts := FastOptions(); opts.ANN.WarmStartEpochs <= 0 {
		t.Error("FastOptions no longer enables the warm-start trainer; this test must cover it")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	sequential := renderEverything(t)

	runtime.GOMAXPROCS(runtime.NumCPU())
	parallel := renderEverything(t)

	if sequential != parallel {
		sl, pl := strings.Split(sequential, "\n"), strings.Split(parallel, "\n")
		for i := 0; i < len(sl) && i < len(pl); i++ {
			if sl[i] != pl[i] {
				t.Fatalf("output diverges at line %d:\n  GOMAXPROCS=1: %q\n  GOMAXPROCS=N: %q", i+1, sl[i], pl[i])
			}
		}
		t.Fatalf("output lengths differ: %d vs %d lines", len(sl), len(pl))
	}
}
