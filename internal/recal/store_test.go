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
	s := NewStore(StoreConfig{})
	for i := 0; i < 2*maxPhases; i++ {
		s.Observe(Obs{Phase: uint64(i), Err: 0.1})
	}
	if got := len(s.Phases()); got != maxPhases {
		t.Fatalf("phase table holds %d entries, bound is %d", got, maxPhases)
	}
}

func TestStoreResetRearms(t *testing.T) {
	s := NewStore(StoreConfig{})
	const n = refWindow + window
	for i := 0; i < n; i++ {
		s.Observe(Obs{Phase: 1, IPC: 1, HasIPC: true})
	}
	if s.Seq() != n || s.Total() != n {
		t.Fatalf("seq/total = %d/%d, want %d/%d", s.Seq(), s.Total(), n, n)
	}
	if v := s.CheckDrift(); !v.Armed || !v.WindowFull {
		t.Fatalf("detector not armed with a full window before reset: %+v", v)
	}
	s.Reset()
	if s.Seq() != 0 {
		t.Fatalf("seq after reset = %d, want 0", s.Seq())
	}
	if s.Total() != n {
		t.Fatalf("total after reset = %d, want %d (lifetime counter never resets)", s.Total(), n)
	}
	if len(s.Phases()) != 0 {
		t.Fatal("reset left the phase table populated")
	}
	v := s.CheckDrift()
	if v.Armed || v.WindowFull {
		t.Fatalf("detector still armed after reset: %+v", v)
	}
}
