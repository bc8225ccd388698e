package dataset

import (
	"testing"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/npb"
	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/topology"
)

func newCollector(t *testing.T, reps int) *Collector {
	t.Helper()
	truth, err := machine.New(topology.QuadCoreXeon())
	if err != nil {
		t.Fatal(err)
	}
	noisy := truth.WithNoise(noise.New(1))
	c := NewCollector(noisy, truth)
	c.Repetitions = reps
	return c
}

func TestCollectBenchmark(t *testing.T) {
	c := newCollector(t, 3)
	b, _ := npb.ByName("CG")
	samples, err := c.CollectBenchmark(b)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(b.Phases) * 3; len(samples) != want {
		t.Fatalf("got %d samples, want %d", len(samples), want)
	}
	for _, s := range samples {
		if s.Bench != "CG" {
			t.Errorf("sample bench = %q", s.Bench)
		}
		if ipc, ok := s.Rates.Get(pmu.Instructions); !ok || ipc <= 0 {
			t.Error("sample has no IPC")
		}
		for _, cfg := range c.Configs {
			if s.MeasuredIPC[cfg.Name] <= 0 {
				t.Errorf("missing measured IPC for %s", cfg.Name)
			}
			if s.TrueIPC[cfg.Name] <= 0 {
				t.Errorf("missing true IPC for %s", cfg.Name)
			}
		}
		// All twelve programmable events must be present after a full
		// rotation.
		for _, e := range pmu.FullEventSet() {
			if _, ok := s.Rates.Get(e); !ok {
				t.Errorf("event %v missing from rates", e)
			}
		}
	}
}

func TestCollectRepetitionsDiffer(t *testing.T) {
	c := newCollector(t, 2)
	b, _ := npb.ByName("IS")
	samples, err := c.CollectBenchmark(b)
	if err != nil {
		t.Fatal(err)
	}
	// Two repetitions of the same phase must differ under measurement
	// noise (otherwise repetitions add no information).
	a, bb := samples[0], samples[1]
	if a.Phase != bb.Phase {
		t.Fatal("expected consecutive repetitions of one phase")
	}
	if a.Rates.V[pmu.Instructions] == bb.Rates.V[pmu.Instructions] {
		t.Error("repetitions produced identical sampled IPC")
	}
	// Ground truth is noise-free and identical.
	if a.TrueIPC["4"] != bb.TrueIPC["4"] {
		t.Error("true IPC differs across repetitions")
	}
}

func TestFeaturesVector(t *testing.T) {
	c := newCollector(t, 1)
	b, _ := npb.ByName("MG")
	samples, _ := c.CollectBenchmark(b)
	events := pmu.ReducedEventSet(2)
	x := samples[0].Features(events)
	if len(x) != len(events)+1 {
		t.Fatalf("feature vector length %d, want %d", len(x), len(events)+1)
	}
	if x[0] != samples[0].Rates.V[pmu.Instructions] {
		t.Error("feature[0] is not the sampled IPC")
	}
}

func TestLeaveOneOut(t *testing.T) {
	suite := map[string][]PhaseSample{
		"A": {{Bench: "A"}, {Bench: "A"}},
		"B": {{Bench: "B"}},
		"C": {{Bench: "C"}},
	}
	loo := LeaveOneOut(suite, "B")
	if len(loo) != 3 {
		t.Fatalf("got %d samples, want 3", len(loo))
	}
	for _, s := range loo {
		if s.Bench == "B" {
			t.Error("excluded benchmark leaked into training data")
		}
	}
}

// ipcAndL2 is a rate vector carrying an IPC and an L2 miss rate.
func ipcAndL2(ipc, l2 float64) pmu.Rates {
	var r pmu.Rates
	r.Set(pmu.Instructions, ipc)
	r.Set(pmu.L2Misses, l2)
	return r
}

func TestToSamples(t *testing.T) {
	ps := []PhaseSample{{
		Bench: "A", Phase: "p",
		Rates:       ipcAndL2(1.5, 0.01),
		MeasuredIPC: map[string]float64{"2b": 2.5},
	}}
	events := []pmu.Event{pmu.L2Misses}
	ss, err := ToSamples(ps, events, "2b")
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 1 || ss[0].Y != 2.5 || ss[0].X[0] != 1.5 || ss[0].X[1] != 0.01 {
		t.Errorf("ToSamples = %+v", ss)
	}
	if _, err := ToSamples(ps, events, "zz"); err == nil {
		t.Error("missing target config accepted")
	}
}

func TestCollectSuite(t *testing.T) {
	c := newCollector(t, 1)
	benches := npb.All()[:2]
	suite, err := c.CollectSuite(benches)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 2 {
		t.Fatalf("suite has %d entries", len(suite))
	}
	for _, b := range benches {
		if len(suite[b.Name]) != len(b.Phases) {
			t.Errorf("%s: %d samples, want %d", b.Name, len(suite[b.Name]), len(b.Phases))
		}
	}
}

func TestToSamplesMultiSharesFeatures(t *testing.T) {
	ps := []PhaseSample{
		{
			Bench: "A", Phase: "p",
			Rates:       ipcAndL2(1.5, 0.01),
			MeasuredIPC: map[string]float64{"1": 1.1, "2b": 2.5},
		},
		{
			Bench: "A", Phase: "q",
			Rates:       ipcAndL2(0.8, 0.04),
			MeasuredIPC: map[string]float64{"1": 0.7, "2b": 1.9},
		},
	}
	events := []pmu.Event{pmu.L2Misses}
	targets := []string{"1", "2b"}
	multi, err := ToSamplesMulti(ps, events, targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range targets {
		single, err := ToSamples(ps, events, tgt)
		if err != nil {
			t.Fatal(err)
		}
		if len(multi[tgt]) != len(single) {
			t.Fatalf("target %s: %d samples, want %d", tgt, len(multi[tgt]), len(single))
		}
		for i := range single {
			if multi[tgt][i].Y != single[i].Y {
				t.Errorf("target %s sample %d: Y = %v, want %v", tgt, i, multi[tgt][i].Y, single[i].Y)
			}
			for j := range single[i].X {
				if multi[tgt][i].X[j] != single[i].X[j] {
					t.Errorf("target %s sample %d: X[%d] = %v, want %v",
						tgt, i, j, multi[tgt][i].X[j], single[i].X[j])
				}
			}
		}
	}
	// The whole point: one feature vector extraction per phase sample,
	// aliased across targets.
	for i := range ps {
		if &multi["1"][i].X[0] != &multi["2b"][i].X[0] {
			t.Errorf("sample %d: feature vectors not shared across targets", i)
		}
	}
	if _, err := ToSamplesMulti(ps, events, []string{"1", "zz"}); err == nil {
		t.Error("missing target config accepted")
	}
}
