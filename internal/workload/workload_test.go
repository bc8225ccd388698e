package workload

import (
	"strings"
	"testing"
)

func validPhase() PhaseProfile {
	return PhaseProfile{
		Name: "p", Instructions: 1e8, BaseIPC: 1.5,
		MemRefsPerInstr: 0.3, LoadFraction: 0.6, L1MissRate: 0.05,
		WorkingSetBytes: 1 << 20, SharingFactor: 0.2, LocalityExp: 1,
		ColdMissRate: 0.1, MLP: 2, ParallelFraction: 0.99,
		SyncCycles: 1e5, BranchRate: 0.1, BranchMissRate: 0.02,
		TLBMissRate: 0.001, PrefetchFriendly: 0.5,
	}
}

func TestPhaseValidateAccepts(t *testing.T) {
	p := validPhase()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid phase rejected: %v", err)
	}
}

func TestPhaseValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*PhaseProfile)
	}{
		{"zero instructions", func(p *PhaseProfile) { p.Instructions = 0 }},
		{"negative instructions", func(p *PhaseProfile) { p.Instructions = -1 }},
		{"zero ipc", func(p *PhaseProfile) { p.BaseIPC = 0 }},
		{"huge ipc", func(p *PhaseProfile) { p.BaseIPC = 9 }},
		{"memrefs > 1", func(p *PhaseProfile) { p.MemRefsPerInstr = 1.5 }},
		{"load fraction", func(p *PhaseProfile) { p.LoadFraction = -0.1 }},
		{"l1 miss", func(p *PhaseProfile) { p.L1MissRate = 2 }},
		{"negative ws", func(p *PhaseProfile) { p.WorkingSetBytes = -1 }},
		{"sharing", func(p *PhaseProfile) { p.SharingFactor = 1.2 }},
		{"locality", func(p *PhaseProfile) { p.LocalityExp = 0 }},
		{"cold", func(p *PhaseProfile) { p.ColdMissRate = -0.2 }},
		{"mlp", func(p *PhaseProfile) { p.MLP = 0.5 }},
		{"parallel fraction", func(p *PhaseProfile) { p.ParallelFraction = 1.01 }},
		{"sync", func(p *PhaseProfile) { p.SyncCycles = -1 }},
		{"critical", func(p *PhaseProfile) { p.CriticalFraction = 2 }},
		{"branch rate", func(p *PhaseProfile) { p.BranchRate = 1.5 }},
		{"branch miss", func(p *PhaseProfile) { p.BranchMissRate = -1 }},
		{"tlb", func(p *PhaseProfile) { p.TLBMissRate = 1.5 }},
		{"prefetch", func(p *PhaseProfile) { p.PrefetchFriendly = -0.5 }},
		{"store boost", func(p *PhaseProfile) { p.StoreBandwidthBoost = -1 }},
	}
	for _, c := range cases {
		p := validPhase()
		c.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: invalid phase accepted", c.name)
		} else if !strings.Contains(err.Error(), "p") {
			t.Errorf("%s: error %q does not name the phase", c.name, err)
		}
	}
}

func TestBenchmarkValidate(t *testing.T) {
	b := &Benchmark{Name: "X", Iterations: 10, Phases: []PhaseProfile{validPhase()}}
	if err := b.Validate(); err != nil {
		t.Fatalf("valid benchmark rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Benchmark)
	}{
		{"empty name", func(b *Benchmark) { b.Name = "" }},
		{"no phases", func(b *Benchmark) { b.Phases = nil }},
		{"zero iterations", func(b *Benchmark) { b.Iterations = 0 }},
		{"bad phase", func(b *Benchmark) { b.Phases[0].BaseIPC = 0 }},
	}
	for _, c := range cases {
		bb := &Benchmark{Name: "X", Iterations: 10, Phases: []PhaseProfile{validPhase()}}
		c.mutate(bb)
		if err := bb.Validate(); err == nil {
			t.Errorf("%s: invalid benchmark accepted", c.name)
		}
	}
}

func TestTotalInstructions(t *testing.T) {
	b := &Benchmark{
		Name:       "X",
		Iterations: 3,
		Phases:     []PhaseProfile{validPhase(), validPhase()},
	}
	want := 2 * 1e8 * 3
	if got := b.TotalInstructions(); got != want {
		t.Errorf("TotalInstructions = %g, want %g", got, want)
	}
}

func TestPhaseNames(t *testing.T) {
	p1, p2 := validPhase(), validPhase()
	p1.Name, p2.Name = "alpha", "beta"
	b := &Benchmark{Name: "X", Iterations: 1, Phases: []PhaseProfile{p1, p2}}
	names := b.PhaseNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Errorf("PhaseNames = %v", names)
	}
}

// TotalInstructions returns the dynamic instruction count of the whole run.
func (b *Benchmark) TotalInstructions() float64 {
	var t float64
	for i := range b.Phases {
		t += b.Phases[i].Instructions
	}
	return t * float64(b.Iterations)
}
