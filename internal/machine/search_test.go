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
// FutureScaling's 2x2…16x2 and the quad-core Xeon over every
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
		add(fmt.Sprintf("manycore-%d", cores), mustDesc(t, fmt.Sprintf("%dx2", cores/2)), topology.EnumeratePlacements)
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

// boundsEveryZ is the bound pass with every z taken: s.bounds on ctx, then
// the z of every placement it left at its z-free bound lo (noZ), in batches
// of four as Best takes them. It returns the least prefilter bound's index
// and every placement's lo — b0·lowFac/freq where the placement carries a
// response factor, its prefilter bound otherwise.
func boundsEveryZ(s *Search, ctx *phaseCtx, p *workload.PhaseProfile, idio float64) (first int, lo []float64) {
	first = s.bounds(ctx, p, idio)
	sc := &ctx.srch
	freq := ctx.acct.freq
	lo = make([]float64, len(s.names))
	var batch [4]int32
	nb := 0
	for i := range s.names {
		lo[i] = sc.cheap[i]
		if sc.resp && s.threads[i] > 1 {
			lo[i] = sc.b0[i] * sc.lowFac / freq
		}
		if sc.noZ[i] {
			batch[nb] = int32(i)
			if nb++; nb == len(batch) {
				s.takeZ(sc, &batch, nb, freq)
				nb = 0
			}
		}
	}
	if nb > 0 {
		s.takeZ(sc, &batch, nb, freq)
	}
	return first, lo
}

// boundsUnderTimes reports the first placement whose z-free bound lo exceeds
// its prefilter bound, whose prefilter bound exceeds its exact bound or whose
// exact bound exceeds its exact time in dst, and a bound pass that does not
// report the least prefilter bound.
func boundsUnderTimes(s *Search, p *workload.PhaseProfile, idio float64, placements []topology.Placement, dst []Result) error {
	ctx := &phaseCtx{}
	first, lo := boundsEveryZ(s, ctx, p, idio)
	sc := &ctx.srch
	freq := s.m.Topo.FrequencyHz * s.m.clockScale()
	for i := range placements {
		if !(lo[i] <= sc.cheap[i]) {
			return fmt.Errorf("placement %s: z-free bound %v > prefilter bound %v", placements[i].Name, lo[i], sc.cheap[i])
		}
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

// randomParams builds Params WithParams accepts from random words.
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

// propertyCase builds one random case of the bound property tests from
// quick's draws: a random asymmetric topology over every placement, a random
// Validate-passing phase, random valid Params — response sigmas up to 4,
// where the prefilter's cubic is loose or negative — a clock scale and an
// idiosyncrasy.
func propertyCase(t *testing.T, bg, bs, lg, ls, fr, cr uint8, pr [20]uint32, par [7]uint32, clockRaw, idioRaw uint16) (m *Machine, placements []topology.Placement, p workload.PhaseProfile, idio float64) {
	topo := buildFuzzTopo(t, bg, bs, lg, ls, fr, cr)
	placements = topology.EnumeratePlacements(topo)
	p = randomPhase(pr)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	m = m.WithParams(randomParams(par))
	m = m.WithFrequency(0.25 + float64(clockRaw)/math.MaxUint16*0.75)
	idio = (float64(idioRaw)/math.MaxUint16 - 0.5) * 0.8
	return m, placements, p, idio
}

// TestSearchBoundProperty runs both checks above on random property cases
// (propertyCase).
func TestSearchBoundProperty(t *testing.T) {
	f := func(bg, bs, lg, ls, fr, cr uint8, pr [20]uint32, par [7]uint32, clockRaw, idioRaw uint16) bool {
		m, placements, p, idio := propertyCase(t, bg, bs, lg, ls, fr, cr, pr, par, clockRaw, idioRaw)
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

// TestSearchBoundsMatchReference: the bound pass, which reads the per-phase
// accounting record, gives every placement the b0 and the prefilter bound of
// the per-placement reference (referenceBounds) bit for bit — on every
// machine the scaling studies search and every NPB phase, and on random
// property cases.
func TestSearchBoundsMatchReference(t *testing.T) {
	forEachOraclePhase(t, func(c oracleCase, s *Search, p *workload.PhaseProfile, idio float64, _ []Result) {
		if err := boundsMatchReference(s, p, idio); err != nil {
			t.Errorf("%s %s: %v", c.name, p.Fingerprint, err)
		}
	})
	f := func(bg, bs, lg, ls, fr, cr uint8, pr [20]uint32, par [7]uint32, clockRaw, idioRaw uint16) bool {
		m, placements, p, idio := propertyCase(t, bg, bs, lg, ls, fr, cr, pr, par, clockRaw, idioRaw)
		if err := boundsMatchReference(NewSearch(m, placements), &p, idio); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// boundsMatchReference reports the first placement whose b0 or prefilter
// bound from the bound pass, every z taken (boundsEveryZ), differs in any bit
// from the reference's, or whose z-free bound exceeds its prefilter bound.
func boundsMatchReference(s *Search, p *workload.PhaseProfile, idio float64) error {
	ctx := &phaseCtx{}
	_, lo := boundsEveryZ(s, ctx, p, idio)
	wantB0, wantCheap := referenceBounds(s, p, idio)
	sc := &ctx.srch
	for i := range s.names {
		if !(lo[i] <= sc.cheap[i]) {
			return fmt.Errorf("placement %s: z-free bound %v > prefilter bound %v", s.names[i], lo[i], sc.cheap[i])
		}
		if math.Float64bits(sc.b0[i]) != math.Float64bits(wantB0[i]) {
			return fmt.Errorf("placement %s: b0 %v, reference %v", s.names[i], sc.b0[i], wantB0[i])
		}
		if math.Float64bits(sc.cheap[i]) != math.Float64bits(wantCheap[i]) {
			return fmt.Errorf("placement %s: prefilter bound %v, reference %v", s.names[i], sc.cheap[i], wantCheap[i])
		}
	}
	return nil
}

// TestSearchPruneCensus pins how many placements Best solves exactly over
// every NPB phase on the four hetero machines, each searched over its
// balanced placements: the census PERFORMANCE.md reports. A change to the
// bound, the prefilter or the search order that moves what is pruned moves
// these counts; a change that keeps every bound's bits keeps them.
func TestSearchPruneCensus(t *testing.T) {
	census := []struct {
		desc   string
		solved int64
	}{
		{"16x4", 1217},
		{"12x4+8x2:little", 7222},
		{"16x4+16x2:little", 16142},
		{"16x4+32x2:little", 27557},
	}
	var solved, placementPhases int64
	for _, c := range census {
		topo, err := topology.ParseDesc(c.desc)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(topo)
		if err != nil {
			t.Fatal(err)
		}
		s := NewBalancedSearch(m)
		solved0 := searchSolved.Load()
		for _, b := range npb.All() {
			for pi := range b.Phases {
				s.Best(&b.Phases[pi], b.Idiosyncrasy)
				placementPhases += int64(s.Len())
			}
		}
		got := searchSolved.Load() - solved0
		if got != c.solved {
			t.Errorf("%s: Best solved %d placements over every NPB phase, census %d", c.desc, got, c.solved)
		}
		solved += got
	}
	if solved != 52138 || placementPhases != 428576 {
		t.Errorf("hetero study: %d of %d placement-phases solved, census 52138 of 428576", solved, placementPhases)
	}
}

// TestSearchHashCensus pins how many response z Best takes over every NPB
// phase on the four hetero machines, each searched over its balanced
// placements: the z census PERFORMANCE.md reports. A placement's z is taken
// only where its z-free bound does not already rule it out, so a change
// that hashes every placement — or moves lowFactor, the bound or the
// search order — moves these counts.
func TestSearchHashCensus(t *testing.T) {
	census := []struct {
		desc   string
		hashed int64
	}{
		{"16x4", 2988},
		{"12x4+8x2:little", 24800},
		{"16x4+16x2:little", 63318},
		{"16x4+32x2:little", 124310},
	}
	var hashed int64
	for _, c := range census {
		topo, err := topology.ParseDesc(c.desc)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(topo)
		if err != nil {
			t.Fatal(err)
		}
		s := NewBalancedSearch(m)
		hashed0 := searchHashed.Load()
		for _, b := range npb.All() {
			for pi := range b.Phases {
				s.Best(&b.Phases[pi], b.Idiosyncrasy)
			}
		}
		got := searchHashed.Load() - hashed0
		if got != c.hashed {
			t.Errorf("%s: Best took %d response z over every NPB phase, census %d", c.desc, got, c.hashed)
		}
		hashed += got
	}
	if hashed != 215416 {
		t.Errorf("hetero study: %d response z taken over 428576 placement-phases, census 215416", hashed)
	}
}

// TestSearchIgnoresNoiseAndMemo: on a memoised, noisy machine Search.Best is
// the minimum over a noiseless, memo-less copy's RunPhaseSweep, makes no memo
// lookup and consumes no noise draw.
func TestSearchIgnoresNoiseAndMemo(t *testing.T) {
	topo := mustDesc(t, "4x2")
	placements := topology.EnumeratePlacements(topo)
	p := testPhase()
	m, ref := sweepMachines(t, topo, true, true)
	plain, _ := sweepMachines(t, topo, false, false)
	dst := make([]Result, len(placements))
	plain.RunPhaseSweep(&p, 0.1, placements, dst)
	hits, misses := m.MemoStats()
	if err := searchMatchesScan(NewSearch(m, placements), &p, 0.1, dst); err != nil {
		t.Fatal(err)
	}
	if h, ms := m.MemoStats(); h != hits || ms != misses {
		t.Errorf("Search.Best looked up the memo: hits %d→%d, misses %d→%d", hits, h, misses, ms)
	}
	// Search.Best drew nothing: the next noisy result matches a twin
	// machine's first.
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
	topos := []*topology.Topology{topology.QuadCoreXeon(), mustDesc(t, "4x2"), mustDesc(t, "3x4"), {
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

// irwinHallZ is responseZ's z for the four remainders k (each below
// 1 000 003), with responseZ's arithmetic.
func irwinHallZ(k [4]uint64) float64 {
	var z float64
	for _, ki := range k {
		z += float64(ki)/1_000_003.0 - 0.5
	}
	return z * math.Sqrt(3)
}

// TestLowFactorBound: the z-free factor never exceeds expLower(σ·z) for a z
// responseZ can return — at the Irwin–Hall extremes and every mix of small,
// middle and extreme remainders, on a dense grid of z, and just above the
// least z — for σ up to 4 on a dense grid and ulp by ulp where σ·zMin
// crosses the cubic's root, beyond which the cubic is not positive and the
// factor is 0.
func TestLowFactorBound(t *testing.T) {
	var zs []float64
	ks := []uint64{0, 1, 2, 3, 1000, 500_001, 999_999, 1_000_001, 1_000_002}
	for _, a := range ks {
		for _, b := range ks {
			for _, c := range ks {
				for _, d := range ks {
					zs = append(zs, irwinHallZ([4]uint64{a, b, c, d}))
				}
			}
		}
	}
	zMax := irwinHallZ([4]uint64{1_000_002, 1_000_002, 1_000_002, 1_000_002})
	if zLeast := irwinHallZ([4]uint64{}); zLeast != zMin {
		t.Fatalf("least Irwin–Hall z %v, zMin %v", zLeast, zMin)
	}
	const zSteps = 1 << 10
	for k := 0; k <= zSteps; k++ {
		zs = append(zs, zMin+(zMax-zMin)*float64(k)/zSteps)
	}
	for z, k := zMin, 0; k < 1<<8; k++ {
		zs = append(zs, z)
		z = math.Nextafter(z, 0)
	}
	check := func(sigma float64) {
		lf := lowFactor(sigma)
		if !(lf >= 0 && lf <= 1) {
			t.Fatalf("lowFactor(%v) = %v, want within [0, 1]", sigma, lf)
		}
		for _, z := range zs {
			if e := expLower(sigma * z); !(lf <= e) {
				t.Fatalf("lowFactor(%v) = %v > expLower(σ·%v) = %v", sigma, lf, z, e)
			}
		}
	}
	const sigmaSteps = 1 << 12
	for k := 0; k <= sigmaSteps; k++ {
		check(4 * float64(k) / sigmaSteps)
	}
	// σ·zMin crosses the cubic's real root, near −1.596, at σ ≈ 0.4607.
	root := 1.5961 / (2 * math.Sqrt(3))
	for sigma, k := root-1e-4, 0; k < 1<<12; k++ {
		check(sigma)
		sigma = math.Nextafter(sigma, 1)
	}
	for sigma := root - 1e-3; sigma <= root+1e-3; sigma += 1e-7 {
		check(sigma)
	}
	for _, sigma := range []float64{0.47, 1, 4} {
		if lf := lowFactor(sigma); lf != 0 {
			t.Errorf("lowFactor(%v) = %v where the cubic is not positive, want 0", sigma, lf)
		}
	}
}

// checkResponseZ4 reports the first of four names whose responseZ4 z differs
// in any bit from responseZ's.
func checkResponseZ4(seed uint64, names [4]string) error {
	got := responseZ4(seed, names[0], names[1], names[2], names[3])
	for j, name := range names {
		if want := responseZ(seed, name); math.Float64bits(got[j]) != math.Float64bits(want) {
			return fmt.Errorf("seed %#x name %q (lane %d): responseZ4 %v, responseZ %v", seed, name, j, got[j], want)
		}
	}
	return nil
}

// TestResponseZ4MatchesResponseZ: the batched z equals responseZ bit for bit
// on every balanced placement name of the four hetero machines under every
// NPB fingerprint, batched in order and with the names of a batch far apart
// (so of different lengths).
func TestResponseZ4MatchesResponseZ(t *testing.T) {
	var names []string
	for _, desc := range []string{"16x4", "12x4+8x2:little", "16x4+16x2:little", "16x4+32x2:little"} {
		for _, pl := range topology.BalancedPlacements(mustDesc(t, desc)) {
			names = append(names, pl.Name)
		}
	}
	n := len(names)
	for _, b := range npb.All() {
		for _, ph := range b.Phases {
			seed := responseSeed(ph.Fingerprint)
			for i := range names {
				for _, batch := range [][4]string{
					{names[i], names[(i+1)%n], names[(i+2)%n], names[(i+3)%n]},
					{names[i], names[n-1-i], names[(i*7)%n], names[(i+n/2)%n]},
				} {
					if err := checkResponseZ4(seed, batch); err != nil {
						t.Fatalf("%s: %v", ph.Fingerprint, err)
					}
				}
			}
		}
	}
}

// FuzzResponseZ4: responseZ4 equals responseZ bit for bit on any seed and
// any four names, empty and non-ASCII ones included.
func FuzzResponseZ4(f *testing.F) {
	f.Add(uint64(0), "", "", "", "")
	f.Add(responseSeed("SP/x_solve"), "55:16/39", "1", "64:32/32", "12:4/8")
	f.Add(responseSeed("IS/rank_count"), "2:1|1", "héllo", "\xff\x00", "4224:16/32/…")
	f.Fuzz(func(t *testing.T, seed uint64, n0, n1, n2, n3 string) {
		if err := checkResponseZ4(seed, [4]string{n0, n1, n2, n3}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSetParamsRejectsUnevaluable: WithParams, which sets a copy's params,
// panics on each parameter the model cannot evaluate, one row per field,
// and accepts the defaults.
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
					t.Errorf("WithParams panic = %q, want one naming %s", msg, r.field)
				}
			}()
			m.WithParams(p)
		})
	}
	valid := DefaultParams()
	valid.ResponseSigma = 0
	m.WithParams(valid).WithParams(DefaultParams())
}
