package machine

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/greenhpc/actor/internal/npb"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// scanMin is the reference Search.Best must reproduce: a strict-< scan of a
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
// the results, with the case's search, to check.
func forEachOraclePhase(t *testing.T, check func(c oracleCase, s *Search, p *workload.PhaseProfile, idio float64, dst []Result)) {
	t.Helper()
	for _, c := range oracleCases(t) {
		s := NewSearch(c.m, c.placements)
		dst := make([]Result, len(c.placements))
		for _, b := range npb.All() {
			for pi := range b.Phases {
				c.m.RunPhaseSweep(&b.Phases[pi], b.Idiosyncrasy, c.placements, dst)
				check(c, s, &b.Phases[pi], b.Idiosyncrasy, dst)
			}
		}
	}
}

// searchMatchesScan reports whether s.Best returns the bits and index of the
// strict-< scan over dst, the machine's sweep of the search's placements.
func searchMatchesScan(s *Search, p *workload.PhaseProfile, idio float64, dst []Result) error {
	wantT, wantAt := scanMin(dst)
	gotT, gotAt := s.Best(p, idio)
	if math.Float64bits(gotT) != math.Float64bits(wantT) || gotAt != wantAt {
		return fmt.Errorf("Search.Best = (%v, %d), sweep scan = (%v, %d)", gotT, gotAt, wantT, wantAt)
	}
	return nil
}

// boundsUnderTimes reports the first placement whose prefilter bound exceeds
// its exact bound or whose exact bound exceeds its exact time in dst, and a
// bound pass that does not report the least prefilter bound.
func boundsUnderTimes(s *Search, p *workload.PhaseProfile, idio float64, placements []topology.Placement, dst []Result) error {
	ctx := &phaseCtx{}
	first := s.bounds(ctx, p, idio)
	sc := &ctx.srch
	freq := s.m.Topo.FrequencyHz * s.m.clockScale()
	for i := range placements {
		bound := sc.b0[i] * s.factor(sc, i) / freq
		if !(sc.cheap[i] <= bound) {
			return fmt.Errorf("placement %s: prefilter bound %v > bound %v", placements[i].Name, sc.cheap[i], bound)
		}
		if !(bound <= dst[i].TimeSec) {
			return fmt.Errorf("placement %s: bound %v > time %v", placements[i].Name, bound, dst[i].TimeSec)
		}
		if sc.cheap[i] < sc.cheap[first] || (sc.cheap[i] == sc.cheap[first] && i < first) {
			return fmt.Errorf("least prefilter bound at %d, the bound pass reported %d", i, first)
		}
	}
	return nil
}

// TestSearchMatchesSweep: on every machine the scaling studies search and
// every NPB phase, Search.Best returns the Float64bits and the index of the
// strict-< scan over RunPhaseSweep's results.
func TestSearchMatchesSweep(t *testing.T) {
	forEachOraclePhase(t, func(c oracleCase, s *Search, p *workload.PhaseProfile, idio float64, dst []Result) {
		if err := searchMatchesScan(s, p, idio, dst); err != nil {
			t.Errorf("%s %s: %v", c.name, p.Fingerprint, err)
		}
	})
}

// TestSearchBoundNeverExceedsTime: every placement-phase of the same set has
// a prefilter bound no larger than its lower bound and a lower bound no
// larger than its exact time.
func TestSearchBoundNeverExceedsTime(t *testing.T) {
	forEachOraclePhase(t, func(c oracleCase, s *Search, p *workload.PhaseProfile, idio float64, dst []Result) {
		if err := boundsUnderTimes(s, p, idio, c.placements, dst); err != nil {
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
		ResponseSigma:           unit(r[6]) * 4,
	}
}

// TestSearchBoundProperty runs both checks above on random asymmetric
// topologies, random Validate-passing phases, random valid Params — response
// sigmas up to 4, where the prefilter's cubic is loose or negative — clock
// scales and idiosyncrasies.
func TestSearchBoundProperty(t *testing.T) {
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
		s := NewSearch(m, placements)
		for _, err := range []error{
			searchMatchesScan(s, &p, idio, dst),
			boundsUnderTimes(s, &p, idio, placements, dst),
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

// TestSearchIgnoresNoiseAndMemo: on a memoised, noisy machine Search.Best is
// the minimum over RunPhaseSweepDeterministic, makes no memo lookup and
// consumes no noise draw.
func TestSearchIgnoresNoiseAndMemo(t *testing.T) {
	topo := topology.Manycore(8, 2)
	placements := topology.EnumeratePlacements(topo)
	p := testPhase()
	m, ref := sweepMachines(t, topo, true, true)
	dst := make([]Result, len(placements))
	m.RunPhaseSweepDeterministic(&p, 0.1, placements, dst)
	hits, misses := m.MemoStats()
	if err := searchMatchesScan(NewSearch(m, placements), &p, 0.1, dst); err != nil {
		t.Fatal(err)
	}
	if h, ms := m.MemoStats(); h != hits || ms != misses {
		t.Errorf("Search.Best looked up the memo: hits %d→%d, misses %d→%d", hits, h, misses, ms)
	}
	// RunPhaseSweepDeterministic and Search.Best drew nothing: the next
	// noisy result matches a twin machine's first.
	if !resultsBitIdentical(m.RunPhase(&p, 0.1, placements[0]), ref.RunPhase(&p, 0.1, placements[0])) {
		t.Error("Search.Best consumed measurement-noise draws")
	}
}

// TestSearchKeepsItsOwnPlacements: a Search answers for the placements it was
// built from, whatever the caller does to the slice afterwards.
func TestSearchKeepsItsOwnPlacements(t *testing.T) {
	topo, err := topology.ParseDesc("12x4+8x2:little")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	placements := topology.BalancedPlacements(topo)
	p := testPhase()
	dst := make([]Result, len(placements))
	m.RunPhaseSweep(&p, 0.1, placements, dst)
	s := NewSearch(m, placements)
	for i := range placements {
		pl := &placements[i]
		pl.Name += "'"
		for j := range pl.Cores {
			pl.Cores[j] = topology.CoreID(len(pl.Cores) - 1 - j)
		}
	}
	if err := searchMatchesScan(s, &p, 0.1, dst); err != nil {
		t.Error(err)
	}
}

// TestBalancedSearchMatchesNewSearch: the search built from the balanced
// occupancies is, field for field, the search NewSearch builds from the
// listed balanced placements — on single-family machines, the hetero-study
// descriptors, interleaved families and groups that mix classes.
func TestBalancedSearchMatchesNewSearch(t *testing.T) {
	topos := []*topology.Topology{topology.QuadCoreXeon(), topology.Manycore(8, 2), topology.Manycore(12, 4), {
		Name:            "mixed-class groups",
		NumCores:        8,
		L2Groups:        [][]topology.CoreID{{0, 1, 2}, {3, 4, 5}, {6, 7}},
		L2BytesPerGroup: 2 << 20,
		L1BytesPerCore:  32 << 10,
		FrequencyHz:     2.4e9,
		BusBandwidth:    8.5e9,
		Classes:         []topology.CoreClass{topology.DefaultClass(), topology.LittleClass()},
		CoreClasses:     []int{0, 1, 1, 0, 1, 1, 1, 1},
	}}
	for _, desc := range []string{"16x4", "12x4+8x2:little", "16x4+16x2:little", "16x4+32x2:little",
		"1x4+2x2:little+1x4", "2x2+1x4:little+3x1", "4x2:little+2x4"} {
		topo, err := topology.ParseDesc(desc)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
	}
	for _, topo := range topos {
		m, err := New(topo)
		if err != nil {
			t.Fatal(err)
		}
		got, want := NewBalancedSearch(m), NewSearch(m, topology.BalancedPlacements(topo))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: NewBalancedSearch differs from NewSearch over BalancedPlacements", topo.Name)
		}
		if got.Len() != len(want.names) {
			t.Errorf("%s: Len = %d, want %d", topo.Name, got.Len(), len(want.names))
		}
	}
}

// TestSearchConcurrentBest: goroutines sharing one Search each get the
// answers a single caller gets (run under make race).
func TestSearchConcurrentBest(t *testing.T) {
	topo, err := topology.ParseDesc("16x4+16x2:little")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearch(m, topology.BalancedPlacements(topo))
	var phases []workload.PhaseProfile
	var idios []float64
	for _, b := range npb.All() {
		for _, ph := range b.Phases {
			phases = append(phases, ph)
			idios = append(idios, b.Idiosyncrasy)
		}
	}
	type answer struct {
		t  float64
		at int
	}
	want := make([]answer, len(phases))
	for i := range phases {
		want[i].t, want[i].at = s.Best(&phases[i], idios[i])
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range phases {
				i := (k + w*7) % len(phases)
				tt, at := s.Best(&phases[i], idios[i])
				if math.Float64bits(tt) != math.Float64bits(want[i].t) || at != want[i].at {
					t.Errorf("worker %d phase %s: (%v, %d), serial (%v, %d)", w, phases[i].Fingerprint, tt, at, want[i].t, want[i].at)
				}
			}
		}()
	}
	wg.Wait()
}

// TestExpLowerBound: the prefilter's factor never exceeds math.Exp — on a
// dense grid over ±2√3·σ for σ up to 4, at zero, at subnormals and across
// the point where the cubic turns negative — and is 0, pruning nothing,
// where the cubic is NaN or ±Inf.
func TestExpLowerBound(t *testing.T) {
	check := func(x float64) {
		if lo, e := expLower(x), math.Exp(x); !(lo <= e) || lo < 0 {
			t.Fatalf("expLower(%v) = %v, math.Exp = %v", x, lo, e)
		}
	}
	xMax := 2 * math.Sqrt(3) * 4
	const steps = 1 << 20
	for k := -steps; k <= steps; k++ {
		check(xMax * float64(k) / steps)
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308, 1e-300, -1e-300} {
		check(x)
	}
	// The cubic's real root lies near −1.596: step across it ulp by ulp.
	root := -1.5961
	for x, k := root-1e-3, 0; k < 1<<16; k++ {
		check(x)
		x = math.Nextafter(x, 0)
	}
	for x := -1.7; x <= -1.5; x += 1e-7 {
		check(x)
	}
	check(1e103) // finite cubic, exp overflows
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e103, 1e200, -1e200, math.MaxFloat64, -math.MaxFloat64} {
		lo := expLower(x)
		if lo != 0 {
			t.Errorf("expLower(%v) = %v, want 0", x, lo)
		}
		for _, b0 := range []float64{0, 1, math.MaxFloat64, math.Inf(1)} {
			if b0*lo > 0 {
				t.Errorf("bound %v · expLower(%v) = %v prunes", b0, x, b0*lo)
			}
		}
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
