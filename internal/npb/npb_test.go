package npb

import (
	"math"
	"testing"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/power"
	"github.com/greenhpc/actor/internal/topology"
)

func TestSuiteValidates(t *testing.T) {
	if err := Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSuiteComposition(t *testing.T) {
	names := Names()
	want := []string{"BT", "CG", "FT", "IS", "LU", "LU-HP", "MG", "SP"}
	if len(names) != len(want) {
		t.Fatalf("suite has %d benchmarks, want %d", len(names), len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("benchmark %d = %q, want %q", i, names[i], n)
		}
	}
	phases := 0
	for _, b := range All() {
		phases += len(b.Phases)
	}
	if phases != 59 {
		t.Errorf("suite has %d phases, want the paper's 59", phases)
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("SP")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Phases) != 12 {
		t.Errorf("SP has %d phases, want 12 (Fig. 2)", len(b.Phases))
	}
	if _, err := ByName("XX"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestFingerprintsUniqueAndSet(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range All() {
		for i := range b.Phases {
			fp := b.Phases[i].Fingerprint
			if fp == "" {
				t.Errorf("%s/%s has no fingerprint", b.Name, b.Phases[i].Name)
			}
			if seen[fp] {
				t.Errorf("duplicate fingerprint %q", fp)
			}
			seen[fp] = true
		}
	}
}

func TestShortIterationBenchmarks(t *testing.T) {
	// The paper's reduced-event-set codes must actually have few
	// iterations so the 20% sampling budget bites.
	for _, name := range []string{"FT", "IS", "MG"} {
		b, _ := ByName(name)
		if b.Iterations > 10 {
			t.Errorf("%s has %d iterations; expected ≤ 10 (short-iteration class)", name, b.Iterations)
		}
	}
	for _, name := range []string{"BT", "LU", "SP"} {
		b, _ := ByName(name)
		if b.Iterations < 100 {
			t.Errorf("%s has %d iterations; expected ≥ 100", name, b.Iterations)
		}
	}
}

// suiteTimes runs the whole suite on the pristine machine and returns
// per-benchmark per-config times, powers and energies.
func suiteTimes(t *testing.T) map[string]map[string][3]float64 {
	t.Helper()
	m, err := machine.New(topology.QuadCoreXeon())
	if err != nil {
		t.Fatal(err)
	}
	pm := power.Default()
	out := make(map[string]map[string][3]float64)
	for _, b := range All() {
		row := make(map[string][3]float64)
		for _, cfg := range topology.PaperConfigs() {
			var acc power.Accumulator
			for pi := range b.Phases {
				res := m.RunPhase(&b.Phases[pi], b.Idiosyncrasy, cfg)
				acc.Add(res.TimeSec*float64(b.Iterations), pm.Power(res.Activity))
			}
			row[cfg.Name] = [3]float64{acc.TimeSec, acc.AvgPower(), acc.EnergyJ}
		}
		out[b.Name] = row
	}
	return out
}

// The calibration tests pin the model to the quantitative facts the paper
// states in §III. Bands are deliberately loose — the goal is preserving the
// paper's qualitative structure (who wins, by roughly what factor), not
// bit-exact numbers.
func TestCalibrationScalability(t *testing.T) {
	times := suiteTimes(t)
	speedup := func(b, cfg string) float64 { return times[b]["1"][0] / times[b][cfg][0] }

	within := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.3f, paper %.3f (tolerance %.2f)", name, got, want, tol)
		}
	}

	within("BT speedup(4)", speedup("BT", "4"), 2.69, 0.45)
	within("scalable class avg speedup(4)",
		(speedup("BT", "4")+speedup("FT", "4")+speedup("LU-HP", "4"))/3, 2.37, 0.55)
	within("CG speedup(2b)", speedup("CG", "2b"), 1.95, 0.30)
	within("CG speedup(4)", speedup("CG", "4"), 1.95, 0.40)
	within("MG speedup(2b)", speedup("MG", "2b"), 1.29, 0.25)
	within("MG speedup(4)", speedup("MG", "4"), 1.11, 0.25)
	within("IS speedup(2b)", speedup("IS", "2b"), 1.228, 0.25)
	within("IS speedup(4)", speedup("IS", "4"), 0.60, 0.20)
	within("IS T2a/T2b", times["IS"]["2a"][0]/times["IS"]["2b"][0], 2.04, 0.55)
	within("IS T4/T2b", times["IS"]["4"][0]/times["IS"]["2b"][0], 2.04, 0.55)

	// Orderings that define the paper's three classes.
	if speedup("BT", "4") < speedup("BT", "2b") {
		t.Error("BT must keep scaling past two cores")
	}
	for _, b := range []string{"MG", "IS"} {
		if times[b]["2b"][0] >= times[b]["4"][0] {
			t.Errorf("%s must be fastest on 2b, not 4", b)
		}
		if times[b]["2b"][0] >= times[b]["2a"][0] {
			t.Errorf("%s loosely coupled must beat tightly coupled", b)
		}
	}
}

func TestCalibrationPowerEnergy(t *testing.T) {
	times := suiteTimes(t)
	var sumRatio float64
	for _, b := range Names() {
		r := times[b]["4"][1] / times[b]["1"][1]
		if r < 1 {
			t.Errorf("%s: power at 4 cores (%.1f W) below 1 core (%.1f W)", b, times[b]["4"][1], times[b]["1"][1])
		}
		sumRatio += r
	}
	avg := sumRatio / float64(len(Names()))
	if math.Abs(avg-1.142) > 0.06 {
		t.Errorf("suite avg power ratio 4-vs-1 = %.3f, paper 1.142", avg)
	}
	// The best-scaling class shows the largest power growth; the
	// bandwidth-bound codes the smallest.
	btRatio := times["BT"]["4"][1] / times["BT"]["1"][1]
	isRatio := times["IS"]["4"][1] / times["IS"]["1"][1]
	if btRatio <= isRatio {
		t.Errorf("BT power growth (%.3f) should exceed IS (%.3f)", btRatio, isRatio)
	}
	// BT's energy drops sharply at 4 cores (paper: factor 2.04).
	btE := times["BT"]["1"][2] / times["BT"]["4"][2]
	if btE < 1.5 || btE > 3 {
		t.Errorf("BT energy ratio 1-vs-4 = %.2f, paper 2.04", btE)
	}
	// IS wastes energy at 4 cores.
	if times["IS"]["4"][2] <= times["IS"]["2b"][2] {
		t.Error("IS energy at 4 cores should exceed 2b")
	}
}

func TestSPPhaseHeterogeneity(t *testing.T) {
	m, err := machine.New(topology.QuadCoreXeon())
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := ByName("SP")
	loBest, hiBest := math.Inf(1), 0.0
	bestConfigs := map[string]bool{}
	for pi := range sp.Phases {
		best, bestCfg := 0.0, ""
		for _, cfg := range topology.PaperConfigs() {
			ipc := m.RunPhase(&sp.Phases[pi], sp.Idiosyncrasy, cfg).AggIPC
			if ipc > best {
				best, bestCfg = ipc, cfg.Name
			}
		}
		loBest = math.Min(loBest, best)
		hiBest = math.Max(hiBest, best)
		bestConfigs[bestCfg] = true
	}
	// Paper: per-phase max IPC spans 0.32 .. 4.64.
	if loBest > 0.6 {
		t.Errorf("least-scalable SP phase best IPC = %.2f, want ≤ 0.6 (paper 0.32)", loBest)
	}
	if hiBest < 3.5 || hiBest > 6 {
		t.Errorf("most-scalable SP phase best IPC = %.2f, want ≈ 4.6", hiBest)
	}
	// Phase best configurations must be diverse (the motivation for
	// phase-granularity adaptation).
	if len(bestConfigs) < 2 {
		t.Errorf("all SP phases prefer one configuration %v; heterogeneity lost", bestConfigs)
	}
}

func TestBenchmarkIndependence(t *testing.T) {
	// Mutating one constructed benchmark must not affect a fresh one.
	a, _ := ByName("BT")
	a.Phases[0].Instructions = 1
	b, _ := ByName("BT")
	if b.Phases[0].Instructions == 1 {
		t.Error("benchmark constructors share state")
	}
}
