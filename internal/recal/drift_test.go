package recal

import "testing"

var (
	phaseA = HashPhase([]byte("steady"))
	phaseB = HashPhase([]byte("shifted"))
)

func TestDriftSteadyTrafficNoTrip(t *testing.T) {
	s := NewStore(StoreConfig{})
	for _, o := range obsStream(5, refWindow+2*window, []uint64{phaseA, phaseB}, 1.3, 0.02) {
		s.Observe(o)
	}
	v := s.CheckDrift()
	if !v.Armed || !v.WindowFull {
		t.Fatalf("detector should be armed with a full window: %+v", v)
	}
	if v.Tripped {
		t.Fatalf("steady traffic tripped the detector: %+v", v)
	}
}

func TestDriftNotArmedNeverTrips(t *testing.T) {
	s := NewStore(StoreConfig{})
	// The reference window full, the rolling one only a quarter full —
	// even a wildly novel phase mix must not trip yet.
	for i := 0; i < refWindow+window/4; i++ {
		s.Observe(Obs{Phase: uint64(1000 + i), IPC: 10, HasIPC: true, Err: 5})
	}
	if v := s.CheckDrift(); v.Tripped {
		t.Fatalf("detector tripped before the window filled: %+v", v)
	}
}

func TestDriftNovelPhaseTrips(t *testing.T) {
	s := NewStore(StoreConfig{})
	for _, o := range obsStream(6, refWindow+window, []uint64{phaseA}, 1.3, 0.02) {
		s.Observe(o)
	}
	// The workload flips to a phase the reference never saw, at the same
	// IPC level — only the novel-phase statistic can catch this.
	for _, o := range obsStream(7, window, []uint64{phaseB}, 1.3, 0.02) {
		s.Observe(o)
	}
	v := s.CheckDrift()
	if !v.Tripped || v.Reason != "novel-phase" {
		t.Fatalf("want novel-phase trip, got %+v", v)
	}
	if v.NovelFrac != 1 {
		t.Errorf("novel fraction = %v, want 1 (entire window is the new phase)", v.NovelFrac)
	}
}

func TestDriftMeanShiftTrips(t *testing.T) {
	s := NewStore(StoreConfig{})
	for _, o := range obsStream(8, refWindow+window, []uint64{phaseA}, 1.3, 0.02) {
		s.Observe(o)
	}
	// Same phase label, but the observed IPC level collapses: a
	// distribution shift in the inputs with no new phases.
	for _, o := range obsStream(9, window, []uint64{phaseA}, 0.4, 0.02) {
		s.Observe(o)
	}
	v := s.CheckDrift()
	if !v.Tripped || v.Reason != "mean-shift" {
		t.Fatalf("want mean-shift trip, got %+v", v)
	}
	if v.NovelFrac != 0 {
		t.Errorf("novel fraction = %v, want 0", v.NovelFrac)
	}
}

func TestDriftErrorEWMATrips(t *testing.T) {
	s := NewStore(StoreConfig{})
	for _, o := range obsStream(10, refWindow+window, []uint64{phaseA}, 1.3, 0.02) {
		s.Observe(o)
	}
	// Traffic looks identical, but the live bank's internal disagreement
	// proxy climbs: per-phase EWMA crosses the threshold.
	for _, o := range obsStream(11, 2*window, []uint64{phaseA}, 1.3, 0.9) {
		s.Observe(o)
	}
	v := s.CheckDrift()
	if !v.Tripped || v.Reason != "error-ewma" {
		t.Fatalf("want error-ewma trip, got %+v", v)
	}
	if v.MaxErrEWMA < errEWMATrip {
		t.Errorf("max EWMA %v below the threshold yet tripped", v.MaxErrEWMA)
	}
}

func TestDriftVerdictDeterministic(t *testing.T) {
	run := func() Verdict {
		s := NewStore(StoreConfig{})
		for _, o := range obsStream(12, refWindow+window, []uint64{phaseA}, 1.3, 0.02) {
			s.Observe(o)
		}
		for _, o := range obsStream(13, window+window/4, []uint64{phaseA, phaseB}, 1.1, 0.02) {
			s.Observe(o)
		}
		return s.CheckDrift()
	}
	if v1, v2 := run(), run(); v1 != v2 {
		t.Fatalf("identical traces produced different verdicts:\n%+v\n%+v", v1, v2)
	}
}
