package recal

import (
	"math/rand"
	"testing"
)

// obsStream produces a deterministic observation sequence: phase drawn
// from phases, IPC gaussian around mean, err gaussian around errMean.
func obsStream(seed int64, n int, phases []uint64, mean, errMean float64) []Obs {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Obs, 0, n)
	for i := 0; i < n; i++ {
		o := Obs{
			Phase:  phases[rng.Intn(len(phases))],
			IPC:    mean + 0.05*rng.NormFloat64(),
			HasIPC: true,
			Err:    errMean + 0.01*rng.NormFloat64(),
		}
		out = append(out, o)
	}
	return out
}

func TestStorePhaseTableBounded(t *testing.T) {
	s := NewStore(StoreConfig{MaxPhases: 8})
	for i := 0; i < 100; i++ {
		s.Observe(Obs{Phase: uint64(i), Err: 0.1})
	}
	if got := len(s.Phases()); got != 8 {
		t.Fatalf("phase table holds %d entries, bound is 8", got)
	}
}

func TestStoreResetRearms(t *testing.T) {
	s := NewStore(StoreConfig{RefWindow: 8, Window: 8})
	for i := 0; i < 40; i++ {
		s.Observe(Obs{Phase: 1, IPC: 1, HasIPC: true})
	}
	if s.Seq() != 40 || s.Total() != 40 {
		t.Fatalf("seq/total = %d/%d, want 40/40", s.Seq(), s.Total())
	}
	s.Reset()
	if s.Seq() != 0 {
		t.Fatalf("seq after reset = %d, want 0", s.Seq())
	}
	if s.Total() != 40 {
		t.Fatalf("total after reset = %d, want 40 (lifetime counter never resets)", s.Total())
	}
	if len(s.Phases()) != 0 {
		t.Fatal("reset left the phase table populated")
	}
	v := s.CheckDrift(DriftConfig{})
	if v.Armed || v.WindowFull {
		t.Fatalf("detector still armed after reset: %+v", v)
	}
}
