package actor_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/greenhpc/actor/pkg/actor"
)

func TestEngineSweep(t *testing.T) {
	eng, _ := servingFixture(t)
	ctx := context.Background()
	sweeps, err := eng.Sweep(ctx, actor.SweepRequest{Bench: "SP"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) == 0 {
		t.Fatal("sweep returned no phases")
	}
	cfgs := eng.ConfigNames()
	for _, ps := range sweeps {
		if len(ps.Rows) != len(cfgs) {
			t.Fatalf("phase %s has %d rows, want %d", ps.Phase, len(ps.Rows), len(cfgs))
		}
		for ci, row := range ps.Rows {
			if row.Config != cfgs[ci] {
				t.Fatalf("phase %s row %d is %q, want %q", ps.Phase, ci, row.Config, cfgs[ci])
			}
			if row.TimeSec <= 0 || row.AggIPC <= 0 {
				t.Fatalf("phase %s config %s has non-positive response: %+v", ps.Phase, row.Config, row)
			}
		}
	}
	// Sweeps are deterministic (and memo-served the second time).
	again, err := eng.Sweep(ctx, actor.SweepRequest{Bench: "SP"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, sweeps) {
		t.Error("repeated sweep diverged")
	}
}

// TestEngineSweepAllocations pins what a warm single-phase sweep
// allocates: the phase index list and the result scratch, and the returned
// sweep list and its row slice, which the caller keeps. The phase itself
// is served from the memo.
func TestEngineSweepAllocations(t *testing.T) {
	eng, _ := servingFixture(t)
	ctx := context.Background()
	req := actor.SweepRequest{Bench: "SP", Phases: []string{"x_solve"}}
	if _, err := eng.Sweep(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := eng.Sweep(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 4 {
		t.Fatalf("warm single-phase sweep allocates %v objects, want 4 (phase list, result scratch, sweep list, rows)", allocs)
	}
}

func TestEngineSweepErrors(t *testing.T) {
	eng, _ := servingFixture(t)
	ctx := context.Background()
	if _, err := eng.Sweep(ctx, actor.SweepRequest{Bench: "NOPE"}); err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Errorf("unknown bench error = %v", err)
	}
	if _, err := eng.Sweep(ctx, actor.SweepRequest{Bench: "SP", Phases: []string{"nope"}}); err == nil || !strings.Contains(err.Error(), "no phase") {
		t.Errorf("unknown phase error = %v", err)
	}
}

func TestEngineOptionValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		opts []actor.Option
		err  string // "" = accepted
	}{
		{"bad topology descriptor", []actor.Option{actor.WithTopology("not a descriptor")}, "topology"},
		{"negative folds", []actor.Option{actor.WithFast(), actor.WithFolds(-3)}, "folds must not be negative"},
		{"one ANN fold", []actor.Option{actor.WithFast(), actor.WithFolds(1)}, "at least 3 folds"},
		{"two ANN folds", []actor.Option{actor.WithFolds(2), actor.WithFast()}, "at least 3 folds"},
		{"three ANN folds", []actor.Option{actor.WithFast(), actor.WithFolds(3)}, ""},
		{"two MLR folds", []actor.Option{actor.WithFast(), actor.WithFolds(2), actor.WithMLR()}, ""},
		{"negative MLR folds", []actor.Option{actor.WithFast(), actor.WithMLR(), actor.WithFolds(-1)}, "folds must not be negative"},
		{"negative repetitions", []actor.Option{actor.WithFast(), actor.WithRepetitions(-1)}, "repetitions must not be negative"},
		{"negative max epochs", []actor.Option{actor.WithFast(), actor.WithMaxEpochs(-1)}, "max epochs must not be negative"},
	} {
		_, err := actor.New(c.opts...)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: New refused: %v", c.name, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: New = %v, want an error naming %q", c.name, err, c.err)
		}
	}
	eng, err := actor.New(actor.WithFast())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunStudy(context.Background(), nil, "nope", ""); err == nil || !strings.Contains(err.Error(), "unknown study") {
		t.Errorf("unknown study = %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	eng, bank := servingFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Sweep(ctx, actor.SweepRequest{Bench: "SP"}); err == nil {
		t.Error("cancelled sweep did not fail")
	}
	if _, err := bank.Predict(ctx, actor.Rates{"IPC": 1}); err == nil {
		t.Error("cancelled predict did not fail")
	}
	if _, err := eng.Train(ctx); err == nil {
		t.Error("cancelled train did not fail")
	}
}
