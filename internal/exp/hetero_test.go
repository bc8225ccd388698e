package exp

import (
	"strings"
	"testing"

	"github.com/greenhpc/actor/internal/topology"
)

// TestHeteroScalingSmall runs the study on reduced scenarios so the full
// path (descriptor parsing, balanced enumeration, per-cell sweeps, render)
// stays covered by the fast test suite.
func TestHeteroScalingSmall(t *testing.T) {
	s := newFastSuite(t)
	scenarios := []HeteroScenario{
		{Name: "8 big", Desc: "2x4"},
		{Name: "8b+4L", Desc: "2x4+2x2:little"},
	}
	r, err := s.HeteroScaling(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cores["8 big"] != 8 || r.Cores["8b+4L"] != 12 {
		t.Errorf("cores = %v", r.Cores)
	}
	for _, sc := range scenarios {
		for bench, gain := range r.Gain[sc.Name] {
			if gain < 0 || gain >= 1 {
				t.Errorf("%s/%s gain %.3f out of [0,1)", sc.Name, bench, gain)
			}
		}
		if r.Placements[sc.Name] == 0 {
			t.Errorf("%s: no placements", sc.Name)
		}
	}
	var b strings.Builder
	r.Render(&b)
	if !strings.Contains(b.String(), "8b+4L") {
		t.Error("render missing scenario row")
	}
}

// TestSuiteOnCustomTopology pins the -topology path: a suite over a
// descriptor machine derives its configuration space from the enumeration,
// keeps the all-cores placement as the sampling configuration, and runs the
// topology-generic figure drivers.
func TestSuiteOnCustomTopology(t *testing.T) {
	topo, err := topology.ParseDesc("2x2+1x2:little")
	if err != nil {
		t.Fatal(err)
	}
	opts := FastOptions()
	opts.Topology = topo
	s, err := NewSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Configs) != len(topology.EnumeratePlacements(topo)) {
		t.Errorf("configs = %d, want full enumeration", len(s.Configs))
	}
	if sc := s.SampleConfig(); sc.Threads() != topo.NumCores {
		t.Errorf("sample config %q has %d threads, want all %d", sc.Name, sc.Threads(), topo.NumCores)
	}
	if got, want := len(s.Targets()), len(s.Configs)-1; got != want {
		t.Errorf("targets = %d, want %d", got, want)
	}
	f1, err := s.Fig1ExecutionTimes()
	if err != nil {
		t.Fatal(err)
	}
	// Little-only single thread must be slower than big-only for every bench.
	for _, b := range f1.Order {
		row := f1.TimeSec[b]
		if row["1:|1"] <= row["1:1|"] {
			t.Errorf("%s: little solo (%.1f) not slower than big solo (%.1f)", b, row["1:|1"], row["1:1|"])
		}
	}
	var sb strings.Builder
	f1.Render(&sb) // must not emit the paper-comparison lines
	if strings.Contains(sb.String(), "paper 2.69") {
		t.Error("custom-topology render emitted paper-platform comparisons")
	}
}

// TestSuiteThinsHugeConfigSpaces pins the trained-space cap: a 128-core
// big/little suite must not derive thousands of ANN targets (one model
// trains per target), while keeping the single-thread and all-cores ends.
func TestSuiteThinsHugeConfigSpaces(t *testing.T) {
	topo, err := topology.ParseDesc("16x4+32x2:little")
	if err != nil {
		t.Fatal(err)
	}
	opts := FastOptions()
	opts.Topology = topo
	s, err := NewSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Configs) > suiteMaxConfigs {
		t.Errorf("suite kept %d configs on a 128-core machine, cap is %d", len(s.Configs), suiteMaxConfigs)
	}
	if s.Configs[0].Threads() != 1 {
		t.Errorf("thinning dropped the single-thread placement: %v", s.Configs[0])
	}
	if s.SampleConfig().Threads() != topo.NumCores {
		t.Errorf("thinning dropped the all-cores placement: %v", s.SampleConfig())
	}
	seen := map[string]bool{}
	for _, c := range s.Configs {
		if seen[c.Name] {
			t.Errorf("thinned space repeats %q", c.Name)
		}
		seen[c.Name] = true
	}
}

// TestDefaultSuiteUnchanged pins the paper platform against regressions
// from the topology generalization: default options still produce the
// quad-core Xeon, the {1, 2a, 2b, 3, 4} space and the paper targets.
func TestDefaultSuiteUnchanged(t *testing.T) {
	s := newFastSuite(t)
	names := s.ConfigNames()
	want := []string{"1", "2a", "2b", "3", "4"}
	if len(names) != len(want) {
		t.Fatalf("config names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("config names = %v, want %v", names, want)
		}
	}
	targets := s.Targets()
	wantTargets := []string{"1", "2a", "2b", "3"}
	if len(targets) != len(wantTargets) {
		t.Fatalf("targets = %v", targets)
	}
	for i := range wantTargets {
		if targets[i] != wantTargets[i] {
			t.Fatalf("targets = %v, want %v", targets, wantTargets)
		}
	}
	if s.SampleConfig().Name != "4" {
		t.Errorf("sample config = %q, want 4", s.SampleConfig().Name)
	}
}
