package machine

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/greenhpc/actor/internal/npb"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// scanMin is the reference BestTime must reproduce: a strict-< scan of a
// sweep's results, so ties keep the lowest index.
func scanMin(dst []Result) (t float64, at int) {
	t = dst[0].TimeSec
	for i := range dst {
		if dst[i].TimeSec < t {
			t, at = dst[i].TimeSec, i
		}
	}
	return t, at
}

// oracleCase is one machine of the oracle searches and its candidates.
type oracleCase struct {
	name       string
	m          *Machine
	placements []topology.Placement
}

// oracleCases lists the machines the scaling studies search: the big/little
// scenarios of exp.DefaultHeteroScenarios over their balanced placements,
// FutureScaling's Manycore(4…32, 2) and the quad-core Xeon over every
// placement.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	var cases []oracleCase
	add := func(name string, topo *topology.Topology, enumerate func(*topology.Topology) []topology.Placement) {
		m, err := New(topo)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, oracleCase{name, m, enumerate(topo)})
	}
	for _, desc := range []string{"16x4", "12x4+8x2:little", "16x4+16x2:little", "16x4+32x2:little"} {
		topo, err := topology.ParseDesc(desc)
		if err != nil {
			t.Fatal(err)
		}
		add(desc, topo, topology.BalancedPlacements)
	}
	for _, cores := range []int{4, 8, 16, 32} {
		add(fmt.Sprintf("manycore-%d", cores), topology.Manycore(cores, 2), topology.EnumeratePlacements)
	}
	add("xeon", topology.QuadCoreXeon(), topology.EnumeratePlacements)
	return cases
}

// forEachOraclePhase sweeps every NPB phase over every oracle case and hands
// the results to check.
func forEachOraclePhase(t *testing.T, check func(c oracleCase, p *workload.PhaseProfile, idio float64, dst []Result)) {
	t.Helper()
	for _, c := range oracleCases(t) {
		dst := make([]Result, len(c.placements))
		for _, b := range npb.All() {
			for pi := range b.Phases {
				c.m.RunPhaseSweep(&b.Phases[pi], b.Idiosyncrasy, c.placements, dst)
				check(c, &b.Phases[pi], b.Idiosyncrasy, dst)
			}
		}
	}
}

// bestTimeMatchesScan reports whether BestTime returns the bits and index of
// the strict-< scan over dst, the machine's sweep of the same placements.
func bestTimeMatchesScan(m *Machine, p *workload.PhaseProfile, idio float64, placements []topology.Placement, dst []Result) error {
	wantT, wantAt := scanMin(dst)
	gotT, gotAt := m.BestTime(p, idio, placements)
	if math.Float64bits(gotT) != math.Float64bits(wantT) || gotAt != wantAt {
		return fmt.Errorf("BestTime = (%v, %d), sweep scan = (%v, %d)", gotT, gotAt, wantT, wantAt)
	}
	return nil
}

// boundsUnderTimes reports the first placement whose lower bound exceeds its
// exact time in dst.
func boundsUnderTimes(m *Machine, p *workload.PhaseProfile, idio float64, placements []topology.Placement, dst []Result) error {
	bound, first := m.sweepBounds(&phaseCtx{}, p, idio, placements)
	for i := range placements {
		if !(bound[i] <= dst[i].TimeSec) {
			return fmt.Errorf("placement %s: bound %v > time %v", placements[i].Name, bound[i], dst[i].TimeSec)
		}
		if bound[i] < bound[first] || (bound[i] == bound[first] && i < first) {
			return fmt.Errorf("least bound at %d, sweepBounds reported %d", i, first)
		}
	}
	return nil
}

// TestBestTimeMatchesSweep: on every machine the scaling studies search and
// every NPB phase, BestTime returns the Float64bits and the index of the
// strict-< scan over RunPhaseSweep's results.
func TestBestTimeMatchesSweep(t *testing.T) {
	forEachOraclePhase(t, func(c oracleCase, p *workload.PhaseProfile, idio float64, dst []Result) {
		if err := bestTimeMatchesScan(c.m, p, idio, c.placements, dst); err != nil {
			t.Errorf("%s %s: %v", c.name, p.Fingerprint, err)
		}
	})
}

// TestSweepBoundNeverExceedsTime: every placement-phase of the same set has
// a lower bound no larger than its exact time.
func TestSweepBoundNeverExceedsTime(t *testing.T) {
	forEachOraclePhase(t, func(c oracleCase, p *workload.PhaseProfile, idio float64, dst []Result) {
		if err := boundsUnderTimes(c.m, p, idio, c.placements, dst); err != nil {
			t.Errorf("%s %s: %v", c.name, p.Fingerprint, err)
		}
	})
}

// unit maps a random word to [0, 1].
func unit(v uint32) float64 { return float64(v) / math.MaxUint32 }

// randomPhase builds a phase profile from random words, every field drawn
// across the range Validate accepts.
func randomPhase(r [20]uint32) workload.PhaseProfile {
	return workload.PhaseProfile{
		Name: "rand", Fingerprint: fmt.Sprintf("RAND/%08x", r[0]),
		Instructions:        1e6 + unit(r[1])*1e10,
		BaseIPC:             0.05 + unit(r[2])*3.95,
		MemRefsPerInstr:     unit(r[3]),
		LoadFraction:        unit(r[4]),
		L1MissRate:          unit(r[5]),
		WorkingSetBytes:     unit(r[6]) * 64 * 1024 * 1024,
		SharingFactor:       unit(r[7]),
		LocalityExp:         0.1 + unit(r[8])*3,
		ColdMissRate:        unit(r[9]),
		MLP:                 1 + unit(r[10])*7,
		ParallelFraction:    unit(r[11]),
		SyncCycles:          unit(r[12]) * 1e7,
		CriticalFraction:    unit(r[13]),
		BranchRate:          unit(r[14]),
		BranchMissRate:      unit(r[15]),
		TLBMissRate:         unit(r[16]),
		PrefetchFriendly:    unit(r[17]),
		StoreBandwidthBoost: unit(r[18]) * 2,
		ChunkGranularity:    int(r[19]%300) - 20,
	}
}

// randomParams builds Params SetParams accepts from random words.
func randomParams(r [7]uint32) Params {
	return Params{
		L2LatencyCycles:         unit(r[0]) * 60,
		MemLatencyCycles:        unit(r[1]) * 1000,
		BranchMissPenaltyCycles: unit(r[2]) * 40,
		TLBMissPenaltyCycles:    unit(r[3]) * 100,
		PeakIssueIPC:            0.25 + unit(r[4])*7.75,
		FixedPointIters:         1 + int(r[5]%24),
		ResponseSigma:           unit(r[6]) * 0.5,
	}
}

// TestBestTimeBoundProperty runs both checks above on random asymmetric
// topologies, random Validate-passing phases, random valid Params, clock
// scales and idiosyncrasies.
func TestBestTimeBoundProperty(t *testing.T) {
	f := func(bg, bs, lg, ls, fr, cr uint8, pr [20]uint32, par [7]uint32, clockRaw, idioRaw uint16) bool {
		topo := buildFuzzTopo(t, bg, bs, lg, ls, fr, cr)
		placements := topology.EnumeratePlacements(topo)
		p := randomPhase(pr)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		m, err := New(topo)
		if err != nil {
			t.Fatal(err)
		}
		m.SetParams(randomParams(par))
		m = m.WithFrequency(0.25 + float64(clockRaw)/math.MaxUint16*0.75)
		idio := (float64(idioRaw)/math.MaxUint16 - 0.5) * 0.8
		dst := make([]Result, len(placements))
		m.RunPhaseSweep(&p, idio, placements, dst)
		for _, err := range []error{
			bestTimeMatchesScan(m, &p, idio, placements, dst),
			boundsUnderTimes(m, &p, idio, placements, dst),
		} {
			if err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBestTimeIgnoresNoiseAndMemo: on a memoised, noisy machine BestTime is
// the minimum over RunPhaseSweepDeterministic, makes no memo lookup and
// consumes no noise draw.
func TestBestTimeIgnoresNoiseAndMemo(t *testing.T) {
	topo := topology.Manycore(8, 2)
	placements := topology.EnumeratePlacements(topo)
	p := testPhase()
	m, ref := sweepMachines(t, topo, true, true)
	dst := make([]Result, len(placements))
	m.RunPhaseSweepDeterministic(&p, 0.1, placements, dst)
	hits, misses := m.MemoStats()
	if err := bestTimeMatchesScan(m, &p, 0.1, placements, dst); err != nil {
		t.Fatal(err)
	}
	if h, ms := m.MemoStats(); h != hits || ms != misses {
		t.Errorf("BestTime looked up the memo: hits %d→%d, misses %d→%d", hits, h, misses, ms)
	}
	// RunPhaseSweepDeterministic and BestTime drew nothing: the next noisy
	// result matches a twin machine's first.
	if !resultsBitIdentical(m.RunPhase(&p, 0.1, placements[0]), ref.RunPhase(&p, 0.1, placements[0])) {
		t.Error("BestTime consumed measurement-noise draws")
	}
}

// TestSetParamsRejectsUnevaluable: SetParams panics on each parameter the
// model cannot evaluate, one row per field, and accepts the defaults.
func TestSetParamsRejectsUnevaluable(t *testing.T) {
	rows := []struct {
		field string
		edit  func(*Params)
	}{
		{"L2LatencyCycles", func(p *Params) { p.L2LatencyCycles = -1 }},
		{"MemLatencyCycles", func(p *Params) { p.MemLatencyCycles = math.NaN() }},
		{"BranchMissPenaltyCycles", func(p *Params) { p.BranchMissPenaltyCycles = math.Inf(1) }},
		{"TLBMissPenaltyCycles", func(p *Params) { p.TLBMissPenaltyCycles = -0.5 }},
		{"PeakIssueIPC", func(p *Params) { p.PeakIssueIPC = 0 }},
		{"FixedPointIters", func(p *Params) { p.FixedPointIters = 0 }},
		{"ResponseSigma", func(p *Params) { p.ResponseSigma = math.Inf(1) }},
	}
	m := newMachine(t)
	for _, r := range rows {
		t.Run(r.field, func(t *testing.T) {
			p := DefaultParams()
			r.edit(&p)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, r.field) {
					t.Errorf("SetParams panic = %q, want one naming %s", msg, r.field)
				}
			}()
			m.SetParams(p)
		})
	}
	valid := DefaultParams()
	valid.ResponseSigma = 0
	m.SetParams(valid)
	m.SetParams(DefaultParams())
}
