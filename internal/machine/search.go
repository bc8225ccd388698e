package machine

import (
	"math"
	"sync/atomic"

	"github.com/greenhpc/actor/internal/fnv"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// Search is the oracle search of one machine over a fixed list of candidate
// placements: for any phase, the fastest placement and its time, as a
// strict-< scan of a noiseless machine's RunPhaseSweep results would find
// them.
// Everything about the placements that does not depend on the phase — each
// placement's lane plan, thread count and first-core class, and the machine's
// distinct (class, load) keys — is prepared once, by NewSearch from a
// placement list or by NewBalancedSearch from the topology's balanced
// occupancies, into the Search's own arrays: editing the placements
// afterwards does not change it.
// What depends on the phase Best takes per call, each part once: the key
// table, one lane per distinct key, from which every bound is read and every
// solve copies its lanes; every placement's bound cycles; and a placement's
// response z, the hash of its name, only where a bound that needs no z
// cannot rule the placement out.
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
	// more than one thread then take exp(sigma·z[i]). seed is the phase's
	// response seed, sigma the ResponseSigma and lowFac the z-free factor
	// (lowFactor) the bound pass scales lo by.
	resp          bool
	seed          uint64
	sigma, lowFac float64
	// b0[i] is placement i's cycles at bus factor 1 before the response
	// factor. Where noZ[i], z has not been taken and cheap[i] holds only lo,
	// the z-free bound b0·lowFac/freq; otherwise z[i] is the placement's
	// response z (where resp and more than one thread) and cheap[i] the
	// prefilter bound, at most the exact bound and at least lo.
	b0, z, cheap []float64
	noZ          []bool
	// hashed counts the z taken by the last Best call.
	hashed int
	// ser[ci] is the serial section's cycles at bus factor 1 on a first
	// core of class ci.
	ser []float64
	// cand holds the placements Best's second pass has yet to decide, in
	// slice order, while a batch of z fills.
	cand []int32
	// keys is the key table: one lane per distinct (class, load) key of the
	// search, in the search's key order, stepped once from bus factor 1.
	// Best's solves copy their lanes' invariant factors from it.
	keys laneState
	// factor[o] is the response factor of the placement in solve-block
	// slot o, taken once for its bound.
	factor []float64
}

// searchSolved counts the placements Search.Best has solved exactly since
// the process started. It is the prune census: BenchmarkBestTimeHetero
// (bench_test.go) reads it to report the solved share.
var searchSolved atomic.Int64

// searchHashed counts the response z Search.Best has taken since the process
// started: the hash census TestSearchHashCensus pins.
var searchHashed atomic.Int64

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
// index as a strict-< scan of a noiseless machine's RunPhaseSweep results. It
// draws no noise and neither reads nor writes the memo (memoised results are
// the same bits anyway). It allocates nothing once the pooled scratch is warm.
//
// It gets there by branch and bound. Every placement's bus factor starts at
// 1, and each damped update averages it with bus.LatencyFactor ≥ 1, so it
// never falls below 1; and the cycle accounting is monotone in the bus factor
// and the lane CPIs (wallCycles), which the lane step is monotone in too. So
// the time after one lane step at bus factor 1 — through the kernel of
// solveBlock's first iteration — fed to the accounting at bus factor 1 and
// times the response factor is a lower bound, bit for bit, on the exact time
// of a phase that passes Validate under Params that WithParams accepts. Best
// solves the placement of least prefilter bound exactly, then solves, in
// slice order and in blocks, only the placements whose bound does not exceed
// the best time found so far. A placement of exactly minimal time is never
// skipped (its bound is at most its time), and ties go to the lower index, so
// at is the first index of the minimum.
//
// The bound is cheap to take. At bus factor 1 a lane's CPI after one step
// depends only on the phase and its (class, load) key, and the step is
// element-wise, so one step over the machine's few distinct keys gives every
// placement's lane CPIs with the bits a per-placement step would. The rest
// of the accounting that does not depend on the lanes is per phase: the
// serial section at bus factor 1 per core class, and the terms of each
// thread count in the context's accounting record (phaseAcct). So one
// placement's bound is its lanes' worst CPI and weighted miss sum, one
// table read and the tail the exact path ends in (wallCycles): the same
// operations in the same order, so the same bits. The response factor's exp
// is taken only where it can matter: a placement whose prefilter bound — the
// response factor replaced by expLower, which never exceeds it — already
// exceeds the best time cannot have an exact bound that does not. Nor is the
// prefilter bound's z, the hash of the placement's name, taken where it
// cannot matter: the z-free bound lo = b0·lowFactor(sigma)/freq never exceeds
// the prefilter bound, since lowFactor never exceeds expLower(sigma·z) for a
// z responseZ returns, so a placement whose lo exceeds the best time is
// skipped unhashed, and every skip and every solve is the one the prefilter
// alone would make. The solves copy their lanes' invariant factors from the
// bound pass's key table — what appendLane gives each (class, load) key —
// rather than deriving them lane by lane.
func (s *Search) Best(p *workload.PhaseProfile, idio float64) (t float64, at int) {
	m := s.m
	ctx := ctxPool.Get().(*phaseCtx)
	first := s.bounds(ctx, p, idio)
	sc := &ctx.srch
	freq := ctx.acct.freq

	// The exact solve of the least bound sets the incumbent; every other
	// placement is solved only while its bound can still beat it.
	t, at = math.Inf(1), len(s.names)
	solved := 0
	queue := func(i int, factor float64) {
		lo, hi := s.laneOff[i], s.laneOff[i+1]
		laneOff := ctx.lanes.len()
		kt := &sc.keys
		for j, k := range s.key[lo:hi] {
			ctx.lanes.append(kt.base[k], kt.pfx[k], kt.q[k], kt.min[k], kt.divf[k], s.cnt[int(lo)+j], kt.miss[k])
		}
		ctx.pend = append(ctx.pend, pendingPlacement{idx: i, laneOff: int32(laneOff), laneN: hi - lo})
		sc.factor = append(sc.factor, factor)
	}
	flush := func() {
		m.solveBlock(ctx, p)
		for o := range ctx.pend {
			idx := ctx.pend[o].idx
			wall, _, _ := m.placementCycles(ctx, o, p, int(s.threads[idx]), &m.classes[s.cls0[idx]])
			wall *= sc.factor[o]
			if tt := wall / freq; tt < t || (tt == t && idx < at) {
				t, at = tt, idx
			}
		}
		solved += len(ctx.pend)
		ctx.resetBlock()
		sc.factor = sc.factor[:0]
	}
	// decide solves placement i, whose z has been taken, if its bounds do not
	// exceed the best time.
	decide := func(i int) {
		if sc.cheap[i] > t {
			return
		}
		factor := s.factor(sc, i)
		if sc.b0[i]*factor/freq > t {
			return
		}
		queue(i, factor)
		if len(ctx.pend) == sweepSolveBlock {
			flush()
		}
	}
	queue(first, s.factor(sc, first))
	flush()
	// A placement whose lo exceeds the best time has a prefilter bound that
	// does too. The rest that still lack z wait in cand, with every
	// placement after them, until four are batched; the best time changes
	// only in decide, so the waiting ones are decided in slice order against
	// the time each would have met.
	var batch [4]int32
	nb := 0
	cand := sc.cand[:0]
	drain := func() {
		s.takeZ(sc, &batch, nb, freq)
		nb = 0
		for _, i := range cand {
			decide(int(i))
		}
		cand = cand[:0]
	}
	for i := range s.names {
		switch {
		case i == first || sc.cheap[i] > t:
		case sc.noZ[i]:
			batch[nb] = int32(i)
			nb++
			cand = append(cand, int32(i))
			if nb == len(batch) {
				drain()
			}
		case nb > 0:
			cand = append(cand, int32(i))
		default:
			decide(i)
		}
	}
	if nb > 0 {
		drain()
	}
	sc.cand = cand
	if len(ctx.pend) > 0 {
		flush()
	}
	searchSolved.Add(int64(solved))
	searchHashed.Add(int64(sc.hashed))
	ctxPool.Put(ctx)
	return t, at
}

// bounds is Best's first pass on ctx: it fills ctx.srch for phase p and
// returns the index of the least prefilter bound, the first among equals.
// The key table is one lane per distinct (class, load) key stepped once from
// bus factor 1, and the serial cycles at bus factor 1 are taken once per
// core class. A placement's bound cycles b0 are then its plan's worst lane
// CPI and multiplicity-weighted miss sum, read from the key table, fed with
// its first core's serial cycles to the accounting's shared tail
// (wallCycles): the exact path's formula at bus factor 1. A placement that
// carries a response factor first gets the z-free bound lo = b0·lowFac/freq,
// at most its prefilter bound; its z is taken, four names at a time, only
// when lo does not exceed the least prefilter bound found so far, so every
// placement that could be the least is hashed and the rest keep lo (noZ). It
// leaves the solve block empty and the key table in ctx.srch.keys.
func (s *Search) bounds(ctx *phaseCtx, p *workload.PhaseProfile, idio float64) (first int) {
	m := s.m
	ctx.resetPhase(m, p, idio)
	ctx.resetBlock()
	ctx.sizeFor(len(m.Topo.L2Groups), s.maxThreads, len(m.classes))
	// The key table is built and stepped as the context's lane block, in
	// the buffers of sc.keys: the swaps give each its own.
	sc := &ctx.srch
	ctx.lanes, sc.keys = sc.keys, ctx.lanes
	ctx.lanes.reset()
	lt := m.laneTermsOf(p)
	for _, k := range s.keys {
		m.appendLane(ctx, p, k, &lt)
	}
	ctx.lanes.sizeDerived()
	m.stepLanes(ctx, p)
	ctx.lanes, sc.keys = sc.keys, ctx.lanes
	ls := &sc.keys

	n := len(s.names)
	sc.b0 = growFloats(sc.b0, n)
	sc.z = growFloats(sc.z, n)
	sc.cheap = growFloats(sc.cheap, n)
	if cap(sc.noZ) < n {
		sc.noZ = make([]bool, n)
	}
	sc.noZ = sc.noZ[:n]
	sc.ser = growFloats(sc.ser, len(m.classes))
	for ci := range m.classes {
		sc.ser[ci] = m.serialCycles(ctx, p, 1, &m.classes[ci])
	}
	sc.sigma = m.params.ResponseSigma
	sc.resp = sc.sigma > 0 && p.Fingerprint != ""
	sc.hashed = 0
	if sc.resp {
		sc.seed = responseSeed(p.Fingerprint)
		sc.lowFac = lowFactor(sc.sigma)
	}
	a := &ctx.acct
	first, least := -1, math.Inf(1)
	consider := func(i int) {
		if c := sc.cheap[i]; first < 0 || c < least || (c == least && i < first) {
			first, least = i, c
		}
	}
	var batch [4]int32
	nb := 0
	for i := range s.names {
		from, to := s.laneOff[i], s.laneOff[i+1]
		cnt := s.cnt[from:to]
		var maxCPI, sumMiss float64
		for j, k := range s.key[from:to] {
			if c := ls.cpi[k]; c > maxCPI {
				maxCPI = c
			}
			sumMiss += float64(cnt[j] * ls.miss[k])
		}
		threads := int(s.threads[i])
		wall, _ := m.wallCycles(a, a.thread(p, threads), threads, sc.ser[s.cls0[i]], maxCPI, sumMiss)
		sc.b0[i] = wall
		if !sc.resp || threads <= 1 {
			sc.cheap[i], sc.noZ[i] = wall/a.freq, false // the response factor is 1
			consider(i)
			continue
		}
		lo := wall * sc.lowFac / a.freq
		sc.cheap[i], sc.noZ[i] = lo, true
		if lo > least {
			continue
		}
		batch[nb] = int32(i)
		if nb++; nb == len(batch) {
			s.takeZ(sc, &batch, nb, a.freq)
			for _, j := range batch {
				consider(int(j))
			}
			nb = 0
		}
	}
	if nb > 0 {
		s.takeZ(sc, &batch, nb, a.freq)
		for _, j := range batch[:nb] {
			consider(int(j))
		}
	}
	return first
}

// takeZ takes the response z of the n ≤ 4 placements batch[:n], in one
// responseZ4 call, and replaces their lo by the prefilter bound
// b0·expLower(sigma·z)/freq. It pads a short batch with its last index.
func (s *Search) takeZ(sc *searchScratch, batch *[4]int32, n int, freq float64) {
	for j := n; j < len(batch); j++ {
		batch[j] = batch[n-1]
	}
	z := responseZ4(sc.seed, s.names[batch[0]], s.names[batch[1]], s.names[batch[2]], s.names[batch[3]])
	for j, i := range batch[:n] {
		sc.z[i] = z[j]
		sc.cheap[i] = sc.b0[i] * expLower(sc.sigma*z[j]) / freq
		sc.noZ[i] = false
	}
	sc.hashed += n
}

// factor is placement i's response factor for the phase of the last bound
// pass: the factor responseFactorCtx returns, bit for bit. Placement i's z
// must have been taken.
func (s *Search) factor(sc *searchScratch, i int) float64 {
	if !sc.resp || s.threads[i] <= 1 {
		return 1
	}
	return math.Exp(sc.sigma * sc.z[i])
}

// expLower returns a lower bound on math.Exp(x): the cubic Taylor polynomial
// P(x) = 1 + x + x²/2 + x³/6, which never exceeds e^x for real x (the
// Lagrange remainder x⁴e^ξ/24 is non-negative), times 1 − 1e-9 to absorb the
// rounding of both sides. Where P is not positive and finite — below
// x ≈ −1.6, or NaN or ±Inf from a non-finite or huge x — it returns 0, so a
// bound it scales prunes nothing.
func expLower(x float64) float64 {
	p := 1 + x*(1+x*(0.5+x*(1.0/6))) // fma-ok: a pruning bound; its 1e-9 slack absorbs either rounding
	if !(p > 0 && p <= math.MaxFloat64) {
		return 0
	}
	return p * (1 - 1e-9)
}

// zMin is the least z responseZ can return: each of its four terms u − 0.5
// is at least −0.5 exactly, so their sum is at least −2, and rounding is
// monotone.
var zMin = -2 * math.Sqrt(3)

// lowFactor returns, for sigma ≥ 0, a lower bound on expLower(sigma·z) for
// every z that responseZ can return: expLower at sigma·zMin, the least
// argument, less 1e-12 for rounding (the cubic's Horner form is monotone only
// up to a few ulps), and 0 where that is not positive.
func lowFactor(sigma float64) float64 {
	return max(0, float64(expLower(sigma*zMin))-1e-12)
}

// responseZ4 is responseZ of four names under one seed, bit for bit: the four
// FNV folds and finalisers are independent chains, interleaved so that each
// multiply's latency overlaps the others'. The remainder, below 2^20,
// converts to float64 through int64, exactly.
func responseZ4(seed uint64, n0, n1, n2, n3 string) (z [4]float64) {
	const prime = fnv.Prime
	h0, h1, h2, h3 := seed, seed, seed, seed
	l := min(len(n0), len(n1), len(n2), len(n3))
	for i := 0; i < l; i++ {
		h0 = (h0 ^ uint64(n0[i])) * prime
		h1 = (h1 ^ uint64(n1[i])) * prime
		h2 = (h2 ^ uint64(n2[i])) * prime
		h3 = (h3 ^ uint64(n3[i])) * prime
	}
	for _, c := range []byte(n0[l:]) {
		h0 = (h0 ^ uint64(c)) * prime
	}
	for _, c := range []byte(n1[l:]) {
		h1 = (h1 ^ uint64(c)) * prime
	}
	for _, c := range []byte(n2[l:]) {
		h2 = (h2 ^ uint64(c)) * prime
	}
	for _, c := range []byte(n3[l:]) {
		h3 = (h3 ^ uint64(c)) * prime
	}
	var z0, z1, z2, z3 float64
	for range 4 {
		h0 ^= h0 >> 33
		h1 ^= h1 >> 33
		h2 ^= h2 >> 33
		h3 ^= h3 >> 33
		h0 *= 0xff51afd7ed558ccd
		h1 *= 0xff51afd7ed558ccd
		h2 *= 0xff51afd7ed558ccd
		h3 *= 0xff51afd7ed558ccd
		h0 ^= h0 >> 33
		h1 ^= h1 >> 33
		h2 ^= h2 >> 33
		h3 ^= h3 >> 33
		z0 += float64(int64(h0%1_000_003))/1_000_003.0 - 0.5
		z1 += float64(int64(h1%1_000_003))/1_000_003.0 - 0.5
		z2 += float64(int64(h2%1_000_003))/1_000_003.0 - 0.5
		z3 += float64(int64(h3%1_000_003))/1_000_003.0 - 0.5
	}
	sqrt3 := math.Sqrt(3)
	return [4]float64{z0 * sqrt3, z1 * sqrt3, z2 * sqrt3, z3 * sqrt3}
}

// growFloats returns buf resized to n, reallocated only when it is short.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
