package exp

import (
	"testing"

	"github.com/greenhpc/actor/internal/core"
)

// TestOracleInvariantsAcrossSuite pins the strategy ordering for every
// benchmark: per-phase oracle total time ≤ global oracle total time ≤ the
// best static configuration's time, all measured noiselessly and without
// migration charges (pure schedule quality).
func TestOracleInvariantsAcrossSuite(t *testing.T) {
	s := newFastSuite(t)
	for _, b := range s.Benches {
		best, times, err := core.GlobalOptimal(b, s.Truth, s.Configs)
		if err != nil {
			t.Fatal(err)
		}
		// Global optimum really is the minimum of the per-config totals.
		for cfg, tt := range times {
			if times[best.Name] > tt*1.0001 {
				t.Errorf("%s: global optimal %s (%.2f) beaten by %s (%.2f)",
					b.Name, best.Name, times[best.Name], cfg, tt)
			}
		}
		// Phase-optimal schedule is at least as good as any single
		// config.
		phaseBests, err := core.PhaseOptimal(b, s.Truth, s.Configs)
		if err != nil {
			t.Fatal(err)
		}
		var phaseTotal float64
		for pi := range b.Phases {
			phaseTotal += s.Truth.RunPhase(&b.Phases[pi], b.Idiosyncrasy, phaseBests[pi]).TimeSec
		}
		phaseTotal *= float64(b.Iterations)
		if phaseTotal > times[best.Name]*1.0001 {
			t.Errorf("%s: phase-optimal (%.2f) worse than global optimal (%.2f)",
				b.Name, phaseTotal, times[best.Name])
		}
	}
}

// TestEnergyTimeConsistencyAcrossSuite checks the accounting identity
// E = P̄ · T and ED² = E · T² for every strategy result in a Fig. 8 run.
func TestEnergyTimeConsistencyAcrossSuite(t *testing.T) {
	s, loo := loadLOO(t)
	r, err := s.Fig8Throttling(loo)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range r.Order {
		row := r.Rows[b]
		for _, st := range Fig8Strategies {
			tt, e, p, ed2 := row.TimeSec[st], row.EnergyJ[st], row.PowerW[st], row.ED2[st]
			if tt <= 0 || e <= 0 || p <= 0 || ed2 <= 0 {
				t.Fatalf("%s/%s: non-positive accounting", b, st)
			}
			if rel(e, p*tt) > 1e-9 {
				t.Errorf("%s/%s: E=%.3f != P*T=%.3f", b, st, e, p*tt)
			}
			if rel(ed2, e*tt*tt) > 1e-9 {
				t.Errorf("%s/%s: ED2 inconsistent", b, st)
			}
		}
	}
}

func rel(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b == 0 {
		return d
	}
	return d / b
}
