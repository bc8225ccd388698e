package machine

import (
	"math"
	"testing"

	"github.com/greenhpc/actor/internal/topology"
)

func TestWithFrequencySlowsComputeLinearly(t *testing.T) {
	m := newMachine(t)
	p := testPhase()
	p.Fingerprint = ""
	// A pure-compute phase: memory terms off.
	p.MemRefsPerInstr = 0.01
	p.L1MissRate = 0.001
	p.WorkingSetBytes = 16 * 1024
	cfg, _ := topology.ConfigByName("1")
	t1 := m.RunPhase(&p, 0, cfg).TimeSec
	t23 := m.WithFrequency(2.0/3).RunPhase(&p, 0, cfg).TimeSec
	ratio := t23 / t1
	if math.Abs(ratio-1.5) > 0.1 {
		t.Errorf("compute phase slowed ×%.3f at 2/3 clock, want ≈ 1.5", ratio)
	}
}

func TestWithFrequencyBarelyAffectsMemoryBound(t *testing.T) {
	m := newMachine(t)
	p := testPhase()
	p.Fingerprint = ""
	p.MemRefsPerInstr = 0.55
	p.L1MissRate = 0.45
	p.ColdMissRate = 0.35
	p.MLP = 10
	p.PrefetchFriendly = 0.8
	cfg, _ := topology.ConfigByName("2b")
	t1 := m.RunPhase(&p, 0, cfg).TimeSec
	t23 := m.WithFrequency(2.0/3).RunPhase(&p, 0, cfg).TimeSec
	ratio := t23 / t1
	if ratio > 1.25 {
		t.Errorf("memory-bound phase slowed ×%.3f at 2/3 clock, want ≲ 1.25", ratio)
	}
	// Near bus saturation the queueing term shrinks with demand, so a
	// slightly sub-1 ratio is a known, bounded model artifact (see the
	// fixed-point note in RunPhase); it must stay small.
	if ratio < 0.85 {
		t.Errorf("lower clock sped the phase up too much: ×%.3f", ratio)
	}
}

func TestWithFrequencyDoesNotMutateBase(t *testing.T) {
	m := newMachine(t)
	p := testPhase()
	cfg, _ := topology.ConfigByName("4")
	before := m.RunPhase(&p, 0, cfg).TimeSec
	_ = m.WithFrequency(0.5)
	after := m.RunPhase(&p, 0, cfg).TimeSec
	if before != after {
		t.Error("WithFrequency mutated the base machine")
	}
	if m.FrequencyScale() != 1 {
		t.Errorf("base frequency scale = %g", m.FrequencyScale())
	}
}

func TestWithFrequencyPanicsOnNonPositive(t *testing.T) {
	m := newMachine(t)
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero frequency scale")
		}
	}()
	m.WithFrequency(0)
}

func TestActivityCarriesFreqScale(t *testing.T) {
	m := newMachine(t)
	p := testPhase()
	cfg, _ := topology.ConfigByName("4")
	a := m.WithFrequency(0.75).RunPhase(&p, 0, cfg).Activity
	if a.FreqScale != 0.75 {
		t.Errorf("Activity.FreqScale = %g, want 0.75", a.FreqScale)
	}
	b := m.RunPhase(&p, 0, cfg).Activity
	if b.FreqScale != 1 {
		t.Errorf("nominal Activity.FreqScale = %g, want 1", b.FreqScale)
	}
}

// FrequencyScale returns the machine's clock scale (1 = nominal).
func (m *Machine) FrequencyScale() float64 { return m.freqScale }
