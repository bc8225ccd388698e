package core

import (
	"slices"
	"testing"
	"time"
)

func TestLiveTunerValidation(t *testing.T) {
	if _, err := NewLiveTuner(nil, 1); err == nil {
		t.Error("empty candidates accepted")
	}
	if _, err := NewLiveTuner([]int{0}, 1); err == nil {
		t.Error("zero thread count accepted")
	}
	if lt, err := NewLiveTuner([]int{2}, 0); err != nil || lt == nil {
		t.Error("probes floor not applied")
	}
}

func TestLiveTunerPicksFastest(t *testing.T) {
	lt, err := NewLiveTuner([]int{4, 2, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Scripted durations: 2 threads is fastest.
	durations := map[int]time.Duration{
		4: 30 * time.Millisecond,
		2: 10 * time.Millisecond,
		1: 50 * time.Millisecond,
	}
	now := time.Unix(0, 0)
	lt.now = func() time.Time { return now }
	for !lt.Decided() {
		n := lt.Begin()
		now = now.Add(durations[n])
		lt.End()
	}
	if lt.Choice() != 2 {
		t.Errorf("chose %d threads, want 2", lt.Choice())
	}
	if lt.Executions() != 6 {
		t.Errorf("executions = %d, want 6 (3 candidates × 2 probes)", lt.Executions())
	}
	// After deciding, Begin keeps returning the choice.
	for i := 0; i < 3; i++ {
		if got := lt.Begin(); got != 2 {
			t.Errorf("post-decision Begin = %d", got)
		}
		now = now.Add(durations[2])
		lt.End()
	}
	pt := lt.ProbeTimes()
	if len(pt) != 3 || pt[0].Threads != 2 || pt[1].Threads != 4 || pt[2].Threads != 1 {
		t.Errorf("probe times not fastest first: %v", pt)
	}
}

// TestLiveTunerProbeTimesTies scripts tied durations: equal probe times
// rank by thread count, the same way every run, and the decision is the
// first of that ranking.
func TestLiveTunerProbeTimesTies(t *testing.T) {
	durations := map[int]time.Duration{
		8: 20 * time.Millisecond,
		4: 10 * time.Millisecond,
		3: 20 * time.Millisecond,
		2: 10 * time.Millisecond,
		1: 10 * time.Millisecond,
	}
	want := []LiveProbe{{1, 0.02}, {2, 0.02}, {4, 0.02}, {3, 0.04}, {8, 0.04}}
	for run := 0; run < 20; run++ {
		lt, err := NewLiveTuner([]int{8, 4, 3, 2, 1}, 2)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Unix(0, 0)
		lt.now = func() time.Time { return now }
		for !lt.Decided() {
			n := lt.Begin()
			now = now.Add(durations[n])
			lt.End()
		}
		got := lt.ProbeTimes()
		if !slices.Equal(got, want) {
			t.Fatalf("run %d: probe times %v, want %v", run, got, want)
		}
		if lt.Choice() != 1 {
			t.Fatalf("run %d: chose %d threads on a three-way tie, want 1", run, lt.Choice())
		}
	}
}

func TestLiveTunerPanicsOnMisuse(t *testing.T) {
	lt, _ := NewLiveTuner([]int{1}, 1)
	lt.Begin()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic on double Begin")
			}
		}()
		lt.Begin()
	}()
	lt.End()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic on End without Begin")
			}
		}()
		lt.End()
	}()
}

func TestLiveTunerChoiceBeforeDecision(t *testing.T) {
	lt, _ := NewLiveTuner([]int{4, 2}, 3)
	if lt.Decided() || lt.Choice() != 0 {
		t.Error("tuner decided before any probe")
	}
}

func TestDefaultCandidates(t *testing.T) {
	c := DefaultCandidates(4)
	want := []int{4, 3, 2, 1}
	if len(c) != 4 {
		t.Fatalf("candidates = %v", c)
	}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("candidates = %v, want %v", c, want)
		}
	}
	if got := DefaultCandidates(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("DefaultCandidates(0) = %v", got)
	}
}

// Decided reports whether the tuner has locked a concurrency level.
func (lt *LiveTuner) Decided() bool { return lt.decided }

// Executions returns the number of completed Begin/End pairs.
func (lt *LiveTuner) Executions() int { return lt.executions }
