package machine

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

func testPhase() workload.PhaseProfile {
	return workload.PhaseProfile{
		Name: "p", Fingerprint: "T/p", Instructions: 5e8, BaseIPC: 1.5,
		MemRefsPerInstr: 0.3, LoadFraction: 0.65, L1MissRate: 0.08,
		WorkingSetBytes: 2.5 * 1024 * 1024, SharingFactor: 0.2, LocalityExp: 1,
		ColdMissRate: 0.15, MLP: 2.5, ParallelFraction: 0.99,
		SyncCycles: 3e5, BranchRate: 0.08, BranchMissRate: 0.02,
		TLBMissRate: 0.0005, ChunkGranularity: 64, PrefetchFriendly: 0.4,
	}
}

func newMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(topology.QuadCoreXeon())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunPhaseBasicInvariants(t *testing.T) {
	m := newMachine(t)
	p := testPhase()
	for _, cfg := range topology.PaperConfigs() {
		res := m.RunPhase(&p, 0, cfg)
		if res.TimeSec <= 0 {
			t.Errorf("%s: non-positive time %g", cfg.Name, res.TimeSec)
		}
		if res.AggIPC <= 0 {
			t.Errorf("%s: non-positive IPC %g", cfg.Name, res.AggIPC)
		}
		maxIPC := float64(cfg.Threads()) * m.Params().PeakIssueIPC
		if res.AggIPC > maxIPC {
			t.Errorf("%s: IPC %g exceeds issue bound %g", cfg.Name, res.AggIPC, maxIPC)
		}
		if got := res.Counts[pmu.Instructions]; got != p.Instructions {
			t.Errorf("%s: instructions %g, want %g", cfg.Name, got, p.Instructions)
		}
		if res.Activity.ActiveCores != cfg.Threads() {
			t.Errorf("%s: active cores %d", cfg.Name, res.Activity.ActiveCores)
		}
		if res.Activity.BusUtilization < 0 || res.Activity.BusUtilization > 1 {
			t.Errorf("%s: bus utilization %g", cfg.Name, res.Activity.BusUtilization)
		}
	}
}

func TestRunPhaseDeterministic(t *testing.T) {
	m := newMachine(t)
	p := testPhase()
	cfg, _ := topology.ConfigByName("4")
	a := m.RunPhase(&p, 0.05, cfg)
	b := m.RunPhase(&p, 0.05, cfg)
	if a.TimeSec != b.TimeSec || a.AggIPC != b.AggIPC {
		t.Error("noiseless machine is not deterministic")
	}
}

func TestEventCountConsistency(t *testing.T) {
	m := newMachine(t)
	p := testPhase()
	cfg, _ := topology.ConfigByName("4")
	c := m.RunPhase(&p, 0, cfg).Counts
	memRefs := c[pmu.L1DReferences]
	if c[pmu.L1DMisses] > memRefs {
		t.Error("L1 misses exceed references")
	}
	if c[pmu.L2Misses] > c[pmu.L2References]+1e-9 {
		t.Error("L2 misses exceed L2 references")
	}
	if got := c[pmu.LoadsRetired] + c[pmu.StoresRetired]; math.Abs(got-memRefs) > 1e-6*memRefs {
		t.Errorf("loads+stores = %g, want %g", got, memRefs)
	}
	if c[pmu.BranchMisses] > c[pmu.BranchesRet] {
		t.Error("branch misses exceed branches")
	}
	if c[pmu.Cycles] <= 0 {
		t.Error("zero cycle count")
	}
	if c[pmu.ResourceStalls] > c[pmu.Cycles] {
		t.Error("stall cycles exceed total cycles")
	}
}

func TestTightCouplingHurtsCapacitySensitivePhases(t *testing.T) {
	m := newMachine(t)
	p := testPhase()
	p.WorkingSetBytes = 3.5 * 1024 * 1024 // nearly a whole L2
	p.SharingFactor = 0.05
	p.Fingerprint = "" // disable response perturbation for a clean check
	t2a, _ := topology.ConfigByName("2a")
	t2b, _ := topology.ConfigByName("2b")
	a := m.RunPhase(&p, 0, t2a)
	b := m.RunPhase(&p, 0, t2b)
	if a.TimeSec <= b.TimeSec {
		t.Errorf("tightly coupled (%.3fs) not slower than loosely coupled (%.3fs) for L2-filling phase",
			a.TimeSec, b.TimeSec)
	}
}

func TestBandwidthWall(t *testing.T) {
	m := newMachine(t)
	p := testPhase()
	p.Fingerprint = ""
	p.MemRefsPerInstr = 0.55
	p.L1MissRate = 0.45
	p.ColdMissRate = 0.3
	p.MLP = 12
	p.PrefetchFriendly = 0.85
	cfg2b, _ := topology.ConfigByName("2b")
	cfg1, _ := topology.ConfigByName("1")
	t1 := m.RunPhase(&p, 0, cfg1).TimeSec
	t2 := m.RunPhase(&p, 0, cfg2b).TimeSec
	// Bandwidth-bound: doubling threads cannot halve time.
	if t2 < t1*0.55 {
		t.Errorf("bandwidth-bound phase sped up too much: %g → %g", t1, t2)
	}
}

func TestSerialFractionLimitsSpeedup(t *testing.T) {
	m := newMachine(t)
	p := testPhase()
	p.Fingerprint = ""
	p.ParallelFraction = 0.5
	p.L1MissRate = 0.01 // keep it compute bound
	p.WorkingSetBytes = 100 * 1024
	cfg4, _ := topology.ConfigByName("4")
	cfg1, _ := topology.ConfigByName("1")
	t1 := m.RunPhase(&p, 0, cfg1).TimeSec
	t4 := m.RunPhase(&p, 0, cfg4).TimeSec
	speedup := t1 / t4
	if speedup > 1.7 { // Amdahl bound at f=0.5 is 1.6, plus model slack
		t.Errorf("speedup %g exceeds Amdahl bound for 50%% serial phase", speedup)
	}
}

func TestNoisyMachine(t *testing.T) {
	m := newMachine(t)
	src := noise.New(1)
	nm := m.WithNoise(src, 0.05, 0.05)
	p := testPhase()
	cfg, _ := topology.ConfigByName("4")
	a := nm.RunPhase(&p, 0, cfg)
	b := nm.RunPhase(&p, 0, cfg)
	if a.TimeSec == b.TimeSec {
		t.Error("noisy machine produced identical times")
	}
	// Instructions are exact (retirement counters don't drift).
	if a.Counts[pmu.Instructions] != b.Counts[pmu.Instructions] {
		t.Error("instruction counts differ under noise")
	}
	// Same seed → same stream.
	nm2 := m.WithNoise(noise.New(1), 0.05, 0.05)
	c := nm2.RunPhase(&p, 0, cfg)
	if c.TimeSec != a.TimeSec {
		t.Error("noise not reproducible under equal seeds")
	}
	// The underlying machine must stay pristine.
	x := m.RunPhase(&p, 0, cfg)
	y := m.RunPhase(&p, 0, cfg)
	if x.TimeSec != y.TimeSec {
		t.Error("WithNoise mutated the base machine")
	}
}

func TestMigrationPenalty(t *testing.T) {
	m := newMachine(t)
	p := testPhase()
	c1, _ := topology.ConfigByName("1")
	c2b, _ := topology.ConfigByName("2b")
	if sec, bytes := m.MigrationPenalty(&p, c1, c1); sec != 0 || bytes != 0 {
		t.Error("same-placement migration has non-zero cost")
	}
	sec, bytes := m.MigrationPenalty(&p, c1, c2b)
	if sec <= 0 || bytes <= 0 {
		t.Errorf("migration 1→2b cost (%g, %g), want positive", sec, bytes)
	}
	// 2a→2b moves one thread to a cold L2 group; 4→4 moves nothing.
	c2a, _ := topology.ConfigByName("2a")
	sec2, _ := m.MigrationPenalty(&p, c2a, c2b)
	if sec2 <= 0 {
		t.Error("migration 2a→2b should refill the new group")
	}
}

func TestResponseFactorProperties(t *testing.T) {
	m := newMachine(t)
	p := testPhase()
	cfg4, _ := topology.ConfigByName("4")
	cfg1, _ := topology.ConfigByName("1")

	a := m.responseFactor(&p, cfg4)
	b := m.responseFactor(&p, cfg4)
	if a != b {
		t.Error("response factor not deterministic")
	}
	if a <= 0 {
		t.Errorf("response factor %g not positive", a)
	}
	if got := m.responseFactor(&p, cfg1); got != 1 {
		t.Errorf("single-thread response factor = %g, want 1", got)
	}
	p2 := p
	p2.Fingerprint = ""
	if got := m.responseFactor(&p2, cfg4); got != 1 {
		t.Errorf("fingerprint-less response factor = %g, want 1", got)
	}
	m2 := *m
	m2.params.ResponseSigma = 0
	if got := m2.responseFactor(&p, cfg4); got != 1 {
		t.Errorf("zero-sigma response factor = %g, want 1", got)
	}
	// Different fingerprints and placements give different factors.
	p3 := p
	p3.Fingerprint = "OTHER/p"
	if m.responseFactor(&p3, cfg4) == a {
		t.Error("distinct fingerprints share a response factor")
	}
	cfg3, _ := topology.ConfigByName("3")
	if m.responseFactor(&p, cfg3) == a {
		t.Error("distinct placements share a response factor")
	}

	// The engine's factor, fingerprint prefix cached across placements and
	// phases, is the reference's bit for bit.
	topo, err := topology.ParseDesc("12x4+8x2:little")
	if err != nil {
		t.Fatal(err)
	}
	hm, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &phaseCtx{}
	for _, fp := range []string{p.Fingerprint, "OTHER/p", ""} {
		q := p
		q.Fingerprint = fp
		for _, pl := range topology.BalancedPlacements(topo) {
			if got, want := hm.responseFactorCtx(ctx, &q, &pl), hm.responseFactor(&q, pl); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%q %s: response factor %v, reference %v", fp, pl.Name, got, want)
			}
		}
	}
}

func TestImbalanceFactor(t *testing.T) {
	cases := []struct {
		chunks, n int
		want      float64
	}{
		{64, 4, 1}, {64, 1, 1}, {0, 4, 1},
		{33, 2, float64(17*2) / 33},
		{33, 4, float64(9*4) / 33},
		{2, 4, 2}, // fewer chunks than threads
	}
	for _, c := range cases {
		if got := imbalanceFactor(c.chunks, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("imbalanceFactor(%d, %d) = %g, want %g", c.chunks, c.n, got, c.want)
		}
	}
}

func TestRunPhaseQuickProperties(t *testing.T) {
	m := newMachine(t)
	cfgs := topology.PaperConfigs()
	f := func(ipcRaw, memRaw, missRaw, wsRaw, pfRaw uint16, cfgIdx uint8) bool {
		p := testPhase()
		p.Fingerprint = ""
		p.BaseIPC = 0.5 + float64(ipcRaw%250)/100    // 0.5 .. 3.0
		p.MemRefsPerInstr = float64(memRaw%60) / 100 // 0 .. 0.6
		p.L1MissRate = float64(missRaw%50) / 100     // 0 .. 0.5
		p.WorkingSetBytes = float64(wsRaw%8192) * 1024
		p.PrefetchFriendly = float64(pfRaw%100) / 100
		cfg := cfgs[int(cfgIdx)%len(cfgs)]
		res := m.RunPhase(&p, 0, cfg)
		if !(res.TimeSec > 0) || math.IsNaN(res.TimeSec) || math.IsInf(res.TimeSec, 0) {
			return false
		}
		if !(res.AggIPC > 0) || res.AggIPC > float64(cfg.Threads())*m.Params().PeakIssueIPC {
			return false
		}
		for _, v := range res.Counts {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestManycoreMachine(t *testing.T) {
	m, err := New(topology.Manycore(16, 2))
	if err != nil {
		t.Fatal(err)
	}
	p := testPhase()
	p.Fingerprint = ""
	pls := topology.EnumeratePlacements(m.Topo)
	if len(pls) < 16 {
		t.Fatalf("only %d placements enumerated on 16 cores", len(pls))
	}
	for _, pl := range pls {
		res := m.RunPhase(&p, 0, pl)
		if res.TimeSec <= 0 {
			t.Errorf("placement %v: non-positive time", pl)
		}
	}
}
