package pmu

import (
	"slices"
	"testing"
)

func TestEventNames(t *testing.T) {
	if Instructions.String() != "INST_RETIRED" {
		t.Errorf("Instructions = %q", Instructions.String())
	}
	if Event(99).String() == "" {
		t.Error("out-of-range event has empty name")
	}
	for e := Event(0); int(e) < NumEvents; e++ {
		if e.String() == "" {
			t.Errorf("event %d has no name", e)
		}
	}
}

func TestProgrammable(t *testing.T) {
	if Instructions.Programmable() || Cycles.Programmable() {
		t.Error("fixed counters reported programmable")
	}
	if !L2Misses.Programmable() {
		t.Error("L2Misses not programmable")
	}
}

func TestFullEventSet(t *testing.T) {
	full := FullEventSet()
	if len(full) != 12 {
		t.Fatalf("full event set has %d events, want 12 (the paper's set)", len(full))
	}
	seen := map[Event]bool{}
	for _, e := range full {
		if !e.Programmable() {
			t.Errorf("fixed counter %v in programmable set", e)
		}
		if seen[e] {
			t.Errorf("duplicate event %v", e)
		}
		seen[e] = true
	}
}

func TestReducedEventSet(t *testing.T) {
	if got := ReducedEventSet(1); len(got) != 2 {
		t.Errorf("ReducedEventSet(1) has %d events, want 2", len(got))
	}
	if got := ReducedEventSet(2); len(got) != 4 {
		t.Errorf("ReducedEventSet(2) has %d events, want 4", len(got))
	}
	if got := ReducedEventSet(100); len(got) != 12 {
		t.Errorf("ReducedEventSet(100) has %d events, want 12", len(got))
	}
	if got := ReducedEventSet(0); len(got) != 2 {
		t.Errorf("ReducedEventSet(0) has %d events, want floor of 2", len(got))
	}
	// Priority order: the reduced set is a prefix of the full set.
	full := FullEventSet()
	red := ReducedEventSet(2)
	for i, e := range red {
		if full[i] != e {
			t.Errorf("reduced set not a prefix of full set at %d: %v vs %v", i, e, full[i])
		}
	}
}

// TestCounterFileWidth: a programme of exactly CounterWidth events is
// accepted and read back in order. One event more is refused in
// TestCounterFileProgramErrors.
func TestCounterFileWidth(t *testing.T) {
	f := NewCounterFile()
	full := FullEventSet()
	if err := f.Program(full[:CounterWidth]...); err != nil {
		t.Errorf("programming %d events rejected: %v", CounterWidth, err)
	}
	if got := f.Programmed(); !slices.Equal(got, full[:CounterWidth]) {
		t.Errorf("Programmed = %v, want %v", got, full[:CounterWidth])
	}
}

// TestCounterFileProgramErrors: one event more than CounterWidth, a fixed
// counter or a duplicate is refused, and a refused programme leaves the
// last accepted one in place.
func TestCounterFileProgramErrors(t *testing.T) {
	f := NewCounterFile()
	if err := f.Program(L2Misses, BusTransMem); err != nil {
		t.Fatalf("valid programming rejected: %v", err)
	}
	if err := f.Program(FullEventSet()[:CounterWidth+1]...); err == nil {
		t.Errorf("programming %d events on width %d accepted", CounterWidth+1, CounterWidth)
	}
	if err := f.Program(Instructions); err == nil {
		t.Error("programming a fixed counter accepted")
	}
	if err := f.Program(L2Misses, L2Misses); err == nil {
		t.Error("programming duplicate events accepted")
	}
	if got := f.Programmed(); !slices.Equal(got, []Event{L2Misses, BusTransMem}) {
		t.Errorf("Programmed = %v, want the last accepted programme", got)
	}
}

func TestCounterFileReadVisibility(t *testing.T) {
	f := NewCounterFile()
	truth := Counts{
		Instructions: 1000, Cycles: 2000,
		L2Misses: 10, BusTransMem: 20, L1DMisses: 30,
	}
	if err := f.Program(L2Misses, BusTransMem); err != nil {
		t.Fatal(err)
	}
	vis := f.Read(truth)
	if vis[Instructions] != 1000 || vis[Cycles] != 2000 {
		t.Error("fixed counters not visible")
	}
	if vis[L2Misses] != 10 || vis[BusTransMem] != 20 {
		t.Error("programmed events not visible")
	}
	if vis[L1DMisses] != 0 {
		t.Error("unprogrammed event leaked into visible counts")
	}
}

func TestRatesNormalisation(t *testing.T) {
	file := NewCounterFile()
	plan, _ := PlanRotation([]Event{L2Misses}, 0)
	s := NewSampler(file, plan)
	if err := s.Observe(Counts{Instructions: 1000, Cycles: 2000, L2Misses: 100, BusTransMem: 7}); err != nil {
		t.Fatal(err)
	}
	r := s.Rates()
	if ipc, ok := r.Get(Instructions); !ok || ipc != 0.5 {
		t.Errorf("IPC = %g (present %v), want 0.5", ipc, ok)
	}
	if v, ok := r.Get(L2Misses); !ok || v != 0.05 {
		t.Errorf("L2Misses rate = %g (present %v), want 0.05", v, ok)
	}
	if v, ok := r.Get(BusTransMem); ok || v != 0 {
		t.Errorf("unmeasured BusTransMem = %g (present %v), want absent zero", v, ok)
	}
	if r.Has != MaskOf([]Event{Instructions, L2Misses}) {
		t.Errorf("Has = %b, want IPC and L2Misses", r.Has)
	}
	if (Rates{}).Has != 0 || NewSampler(file, plan).Rates() != (Rates{}) {
		t.Error("a sampler with no observation should carry no rates")
	}
}

func TestRatesVector(t *testing.T) {
	var r Rates
	r.Set(Instructions, 1.2)
	r.Set(L2Misses, 0.01)
	v := r.VectorInto(nil, []Event{L2Misses, BusTransMem})
	if len(v) != 3 || v[0] != 1.2 || v[1] != 0.01 || v[2] != 0 {
		t.Errorf("VectorInto = %v", v)
	}
}

func TestPlanRotationCoverage(t *testing.T) {
	plan, err := PlanRotation(FullEventSet(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumRounds() != 6 {
		t.Errorf("rounds = %d, want 6 for 12 events on width 2", plan.NumRounds())
	}
	covered := map[Event]bool{}
	for _, round := range plan.Rounds {
		if len(round) > 2 {
			t.Errorf("round with %d events exceeds width", len(round))
		}
		for _, e := range round {
			if covered[e] {
				t.Errorf("event %v measured twice in one rotation", e)
			}
			covered[e] = true
		}
	}
	if len(covered) != 12 {
		t.Errorf("rotation covered %d events, want 12", len(covered))
	}
}

func TestPlanRotationBudgetTruncates(t *testing.T) {
	plan, err := PlanRotation(FullEventSet(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumRounds() != 2 {
		t.Errorf("rounds = %d, want 2", plan.NumRounds())
	}
	if len(plan.Events) != 4 {
		t.Errorf("events = %d, want 4 (highest priority first)", len(plan.Events))
	}
	// Truncation keeps priority order.
	full := FullEventSet()
	for i, e := range plan.Events {
		if e != full[i] {
			t.Errorf("truncated plan event %d = %v, want %v", i, e, full[i])
		}
	}
}

func TestPlanRotationEmptyEvents(t *testing.T) {
	plan, err := PlanRotation(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumRounds() != 1 {
		t.Errorf("rounds = %d, want 1 (IPC-only round)", plan.NumRounds())
	}
}

func TestPlanRotationRejectsDuplicates(t *testing.T) {
	if _, err := PlanRotation([]Event{L2Misses, L2Misses}, 0); err == nil {
		t.Error("duplicate events accepted")
	}
}

func TestSamplerAveragesRates(t *testing.T) {
	file := NewCounterFile()
	plan, _ := PlanRotation([]Event{L2Misses, BusTransMem, L1DMisses, DTLBMisses}, 0)
	s := NewSampler(file, plan)
	if s.Done() {
		t.Fatal("sampler done before any observation")
	}
	if s.RoundsRemaining() != 2 {
		t.Errorf("rounds remaining = %d, want 2", s.RoundsRemaining())
	}
	// Round 1: measures L2Misses + BusTransMem.
	err := s.Observe(Counts{
		Instructions: 1000, Cycles: 1000,
		L2Misses: 50, BusTransMem: 20, L1DMisses: 999, DTLBMisses: 999,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round 2: measures L1DMisses + DTLBMisses.
	err = s.Observe(Counts{
		Instructions: 2000, Cycles: 1000,
		L2Misses: 999, BusTransMem: 999, L1DMisses: 100, DTLBMisses: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("sampler not done after full rotation")
	}
	r := s.Rates()
	if r.V[Instructions] != 1.5 { // mean of IPC 1.0 and 2.0
		t.Errorf("mean IPC = %g, want 1.5", r.V[Instructions])
	}
	if r.V[L2Misses] != 0.05 {
		t.Errorf("L2Misses rate = %g, want 0.05 (from its round only)", r.V[L2Misses])
	}
	if r.V[L1DMisses] != 0.1 {
		t.Errorf("L1DMisses rate = %g, want 0.1", r.V[L1DMisses])
	}
	// Extra observations are ignored.
	if err := s.Observe(Counts{Instructions: 1, Cycles: 1}); err != nil {
		t.Errorf("post-completion observation errored: %v", err)
	}
	if got := s.Rates().V[Instructions]; got != 1.5 {
		t.Errorf("post-completion observation changed rates: %g", got)
	}
}

func TestSamplerRejectsZeroCycles(t *testing.T) {
	file := NewCounterFile()
	plan, _ := PlanRotation([]Event{L2Misses}, 0)
	s := NewSampler(file, plan)
	if err := s.Observe(Counts{Instructions: 10}); err == nil {
		t.Error("zero-cycle observation accepted")
	}
}

func TestSamplingBudget(t *testing.T) {
	cases := []struct {
		iters int
		want  int
	}{{400, 80}, {10, 2}, {6, 1}, {4, 1}, {1, 1}, {0, 1}}
	for _, c := range cases {
		if got := SamplingBudget(c.iters, MaxSampleFraction); got != c.want {
			t.Errorf("SamplingBudget(%d) = %d, want %d", c.iters, got, c.want)
		}
	}
}

// Programmed returns the currently selected events.
func (f *CounterFile) Programmed() []Event {
	return append([]Event(nil), f.programmed...)
}

// NumRounds returns how many sampled timesteps the plan needs.
func (p *RotationPlan) NumRounds() int { return len(p.Rounds) }

// RoundsRemaining returns how many more timesteps must be observed.
func (s *Sampler) RoundsRemaining() int {
	r := len(s.plan.Rounds) - s.round
	if r < 0 {
		return 0
	}
	return r
}
