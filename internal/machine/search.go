package machine

import (
	"math"
	"sync/atomic"
	_ "unsafe" // for go:linkname

	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// Search is the oracle search of one machine over a fixed list of candidate
// placements: for any phase, the fastest placement and its time, as a
// strict-< scan of RunPhaseSweepDeterministic's results would find them.
// Everything about the placements that does not depend on the phase — each
// placement's lane plan, thread count and first-core class, and the machine's
// distinct (class, load) keys — is prepared once, by NewSearch from a
// placement list or by NewBalancedSearch from the topology's balanced
// occupancies, into the Search's own arrays: editing the placements
// afterwards does not change it.
// Parameters are read from the machine at each Best call. A Search is
// immutable, so any number of goroutines may call Best at once.
type Search struct {
	m *Machine

	names   []string // placement names, folded into the response factor
	threads []int32  // placement thread counts
	cls0    []int32  // class index of each placement's first core

	// Placement i's lane plan is lanes[laneOff[i]:laneOff[i+1]], in
	// first-appearance order; cnt holds the lanes' multiplicities as the
	// accounting's weights, and key each lane's index into keys.
	laneOff []int32
	lanes   []planLane
	cnt     []float64
	key     []int32

	// keys lists the distinct (class, load) keys over every plan in first
	// appearance order (cnt unused), and maxThreads the largest placement.
	keys       []planLane
	maxThreads int
}

// searchScratch is the per-call scratch of Search.Best, kept in the pooled
// phaseCtx.
type searchScratch struct {
	// resp reports whether the phase of the last bound pass carries a
	// response factor (ResponseSigma > 0 and a fingerprint); placements of
	// more than one thread then take exp(ResponseSigma·z[i]).
	resp bool
	// b0[i] is placement i's cycles at bus factor 1 before the response
	// factor, z[i] its response z (where resp and more than one thread) and
	// cheap[i] the prefilter bound, at most the exact bound.
	b0, z, cheap []float64
	// cpi and miss hold one placement's lanes gathered from the key table.
	cpi, miss []float64
	// factor[o] is the response factor of the placement in solve-block
	// slot o, taken once for its bound.
	factor []float64
}

// searchSolved counts the placements Search.Best has solved exactly since
// the process started. It is the prune census: BenchmarkBestTimeHetero (root
// bench_test.go) reads it through a linkname to report the solved share.
//
//go:linkname searchSolved
var searchSolved atomic.Int64

// NewSearch prepares the oracle search of m over placements. It panics when
// placements is empty or holds a placement with no cores, as RunPhase does on
// the latter.
func NewSearch(m *Machine, placements []topology.Placement) *Search {
	if len(placements) == 0 {
		panic("machine: NewSearch over no placements")
	}
	s := &Search{
		m:       m,
		names:   make([]string, len(placements)),
		threads: make([]int32, len(placements)),
		cls0:    make([]int32, len(placements)),
		laneOff: make([]int32, len(placements)+1),
	}
	ctx := ctxPool.Get().(*phaseCtx)
	keyIdx := map[planLane]int32{}
	for i := range placements {
		pl := &placements[i]
		n := pl.Threads()
		if n == 0 {
			panic("machine: placement with no cores")
		}
		s.names[i] = pl.Name
		s.threads[i] = int32(n)
		s.cls0[i] = int32(m.classIdxOf(pl.Cores[0]))
		s.maxThreads = max(s.maxThreads, n)

		ctx.sizeFor(len(m.Topo.L2Groups), n, len(m.classes))
		lo := len(s.lanes)
		s.lanes = m.resolvePlan(ctx, s.lanes, pl.Cores)
		for _, ln := range s.lanes[lo:] {
			k := planLane{load: ln.load, ci: ln.ci}
			ki, ok := keyIdx[k]
			if !ok {
				ki = int32(len(s.keys))
				keyIdx[k] = ki
				s.keys = append(s.keys, k)
			}
			s.key = append(s.key, ki)
			s.cnt = append(s.cnt, float64(ln.cnt))
		}
		s.laneOff[i+1] = int32(len(s.lanes))
	}
	ctxPool.Put(ctx)
	return s
}

// NewBalancedSearch prepares the oracle search of m over the balanced
// placements of its topology: the Search NewSearch(m,
// topology.BalancedPlacements(m.Topo)) returns, built from each placement's
// per-group occupancy (topology.BalancedOccupancy) without listing its
// cores. Consecutive groups whose cores share one class and that each hold
// k threads add k per group to one (class, k) lane; only a group that mixes
// classes has its occupied cores visited one by one.
func NewBalancedSearch(m *Machine) *Search {
	groups := m.Topo.L2Groups
	// groupCls[g] is the class of every core of group g, or -1 when the
	// group mixes classes; a group's load is at most its size.
	groupCls := make([]int32, len(groups))
	maxLoad := 0
	for g, cores := range groups {
		maxLoad = max(maxLoad, len(cores))
		ci := int32(m.classIdxOf(cores[0]))
		for _, c := range cores[1:] {
			if int32(m.classIdxOf(c)) != ci {
				ci = -1
				break
			}
		}
		groupCls[g] = ci
	}
	// A (class, load) pair is the dense index ci·stride + load: keyAt holds
	// its index in keys plus one, laneAt its lane in the current plan plus
	// one (cleared after each placement).
	stride := maxLoad + 1
	keyAt := make([]int32, len(m.classes)*stride)
	laneAt := make([]int32, len(keyAt))

	s := &Search{m: m, laneOff: []int32{0}}
	var names []byte
	var nameEnd []int
	topology.BalancedOccupancy(m.Topo, func(name []byte, n int, occ []int) bool {
		names = append(names, name...)
		nameEnd = append(nameEnd, len(names))
		s.threads = append(s.threads, int32(n))
		s.maxThreads = max(s.maxThreads, n)

		lo := len(s.lanes)
		add := func(ci int32, load, cnt int) {
			kv := int(ci)*stride + load
			if laneAt[kv] == 0 {
				s.lanes = append(s.lanes, planLane{load: int32(load), ci: ci})
				laneAt[kv] = int32(len(s.lanes) - lo)
			}
			s.lanes[lo+int(laneAt[kv])-1].cnt += int32(cnt)
		}
		cls0 := int32(-1)
		for g := 0; g < len(occ); {
			k, ci := occ[g], groupCls[g]
			if k == 0 {
				g++
				continue
			}
			if cls0 < 0 {
				cls0 = int32(m.classIdxOf(groups[g][0]))
			}
			if ci < 0 {
				for _, c := range groups[g][:k] {
					add(int32(m.classIdxOf(c)), k, 1)
				}
				g++
				continue
			}
			// A run of consecutive single-class groups holding the same
			// load is one lane entry.
			end := g + 1
			for end < len(occ) && occ[end] == k && groupCls[end] == ci {
				end++
			}
			add(ci, k, k*(end-g))
			g = end
		}
		s.cls0 = append(s.cls0, cls0)
		for _, ln := range s.lanes[lo:] {
			kv := int(ln.ci)*stride + int(ln.load)
			laneAt[kv] = 0
			if keyAt[kv] == 0 {
				s.keys = append(s.keys, planLane{load: ln.load, ci: ln.ci})
				keyAt[kv] = int32(len(s.keys))
			}
			s.key = append(s.key, keyAt[kv]-1)
			s.cnt = append(s.cnt, float64(ln.cnt))
		}
		s.laneOff = append(s.laneOff, int32(len(s.lanes)))
		return true
	})
	all := string(names)
	s.names = make([]string, len(nameEnd))
	start := 0
	for i, end := range nameEnd {
		s.names[i] = all[start:end]
		start = end
	}
	return s
}

// Len returns the number of placements the search ranges over.
func (s *Search) Len() int { return len(s.names) }

// Best returns the minimum TimeSec of phase p with idiosyncrasy idio over the
// search's placements and the lowest index that attains it: the same bits and
// index as a strict-< scan of RunPhaseSweepDeterministic's results. It draws
// no noise and neither reads nor writes the memo (memoised results are the
// same bits anyway). It allocates nothing once the pooled scratch is warm.
//
// It gets there by branch and bound. Every placement's bus factor starts at
// 1, and each damped update averages it with bus.LatencyFactor ≥ 1, so it
// never falls below 1; and placementCycles is monotone in the bus factor and
// the lane CPIs, which the lane step is monotone in too. So the time after
// one lane step at bus factor 1 — through the kernel of solveBlock's first
// iteration — fed to placementCycles at bus factor 1 and times the response
// factor is a lower bound, bit for bit, on the exact time of a phase that
// passes Validate under Params that SetParams accepts. Best solves the
// placement of least prefilter bound exactly, then solves, in slice order and
// in blocks, only the placements whose bound does not exceed the best time
// found so far. A placement of exactly minimal time is never skipped (its
// bound is at most its time), and ties go to the lower index, so at is the
// first index of the minimum.
//
// The bound is cheap to take. At bus factor 1 a lane's CPI after one step
// depends only on the phase and its (class, load) key, and the step is
// element-wise, so one step over the machine's few distinct keys gives every
// placement's lane CPIs with the bits a per-placement step would. The
// response factor's exp is taken only where it can matter: a placement whose
// prefilter bound — the response factor replaced by expLower, which never
// exceeds it — already exceeds the best time cannot have an exact bound that
// does not.
func (s *Search) Best(p *workload.PhaseProfile, idio float64) (t float64, at int) {
	m := s.m
	ctx := ctxPool.Get().(*phaseCtx)
	first := s.bounds(ctx, p, idio)
	sc := &ctx.srch
	freq := m.Topo.FrequencyHz * m.clockScale()

	// The exact solve of the least bound sets the incumbent; every other
	// placement is solved only while its bound can still beat it.
	t, at = math.Inf(1), len(s.names)
	solved := 0
	queue := func(i int, factor float64) {
		m.queueLanes(ctx, p, s.lanes[s.laneOff[i]:s.laneOff[i+1]], i)
		sc.factor = append(sc.factor, factor)
	}
	flush := func() {
		m.solveBlock(ctx, p)
		for o := range ctx.pend {
			idx := ctx.pend[o].idx
			wall, _, _ := m.slotCycles(ctx, o, p, idio, int(s.threads[idx]), &m.classes[s.cls0[idx]])
			wall *= sc.factor[o]
			if tt := wall / freq; tt < t || (tt == t && idx < at) {
				t, at = tt, idx
			}
		}
		solved += len(ctx.pend)
		ctx.resetBlock()
		sc.factor = sc.factor[:0]
	}
	queue(first, s.factor(sc, first))
	flush()
	for i := range s.names {
		if i == first || sc.cheap[i] > t {
			continue
		}
		factor := s.factor(sc, i)
		if sc.b0[i]*factor/freq > t {
			continue
		}
		queue(i, factor)
		if len(ctx.pend) == sweepSolveBlock {
			flush()
		}
	}
	if len(ctx.pend) > 0 {
		flush()
	}
	searchSolved.Add(int64(solved))
	ctxPool.Put(ctx)
	return t, at
}

// bounds is Best's first pass on ctx: it fills ctx.srch for phase p and
// returns the index of the least prefilter bound, the first among equals.
// The key table is one lane per distinct (class, load) key stepped once from
// bus factor 1; each placement's bound cycles are placementCycles at bus
// factor 1 over its plan's lanes read from that table. It leaves the solve
// block empty.
func (s *Search) bounds(ctx *phaseCtx, p *workload.PhaseProfile, idio float64) (first int) {
	m := s.m
	ctx.resetPhase()
	ctx.resetBlock()
	ctx.sizeFor(len(m.Topo.L2Groups), s.maxThreads, len(m.classes))
	lt := m.laneTermsOf(p)
	for _, k := range s.keys {
		m.appendLane(ctx, p, k, &lt)
	}
	ls := &ctx.lanes
	ls.sizeDerived()
	m.stepLanes(ls, p)

	sc := &ctx.srch
	n := len(s.names)
	sc.b0 = growFloats(sc.b0, n)
	sc.z = growFloats(sc.z, n)
	sc.cheap = growFloats(sc.cheap, n)
	sc.cpi = growFloats(sc.cpi, len(s.keys))
	sc.miss = growFloats(sc.miss, len(s.keys))
	sigma := m.params.ResponseSigma
	sc.resp = sigma > 0 && p.Fingerprint != ""
	var seed uint64
	if sc.resp {
		seed = responseSeed(p.Fingerprint)
	}
	freq := m.Topo.FrequencyHz * m.clockScale()
	for i := range s.names {
		lo, hi := s.laneOff[i], s.laneOff[i+1]
		for j, k := range s.key[lo:hi] {
			sc.cpi[j], sc.miss[j] = ls.cpi[k], ls.miss[k]
		}
		nl := hi - lo
		wall, _, _ := m.placementCycles(ctx, p, idio, 1, int(s.threads[i]), &m.classes[s.cls0[i]], sc.cpi[:nl], s.cnt[lo:hi], sc.miss[:nl])
		sc.b0[i] = wall
		lower := 1.0 // the response factor, or a lower bound on it
		if sc.resp && s.threads[i] > 1 {
			z := responseZ(seed, s.names[i])
			sc.z[i] = z
			lower = expLower(sigma * z)
		}
		cheap := wall * lower / freq
		sc.cheap[i] = cheap
		if cheap < sc.cheap[first] {
			first = i
		}
	}
	ctx.resetBlock()
	return first
}

// factor is placement i's response factor for the phase of the last bound
// pass: the factor responseFactorCtx returns, bit for bit.
func (s *Search) factor(sc *searchScratch, i int) float64 {
	if !sc.resp || s.threads[i] <= 1 {
		return 1
	}
	return math.Exp(s.m.params.ResponseSigma * sc.z[i])
}

// expLower returns a lower bound on math.Exp(x): the cubic Taylor polynomial
// P(x) = 1 + x + x²/2 + x³/6, which never exceeds e^x for real x (the
// Lagrange remainder x⁴e^ξ/24 is non-negative), times 1 − 1e-9 to absorb the
// rounding of both sides. Where P is not positive and finite — below
// x ≈ −1.6, or NaN or ±Inf from a non-finite or huge x — it returns 0, so a
// bound it scales prunes nothing.
func expLower(x float64) float64 {
	p := 1 + x*(1+x*(0.5+x*(1.0/6)))
	if !(p > 0 && p <= math.MaxFloat64) {
		return 0
	}
	return p * (1 - 1e-9)
}

// growFloats returns buf resized to n, reallocated only when it is short.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
