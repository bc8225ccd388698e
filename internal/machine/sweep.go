package machine

import (
	"math"
	"sync"

	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// This file is the batched phase-sweep engine: the lane form of the phase
// model plus RunPhaseSweep, which evaluates one phase across many placements
// in a single call. RunPhase is the same engine on a block of one, and
// Search (search.go) the same engine searching for the fastest placement,
// solving only the placements a lower bound cannot rule out and hashing a
// placement's name into its response z only where a z-free bound cannot.
//
// The model is defined over lanes (see lanes.go): a placement of n threads is
// a short list of (core class, L2 group load, multiplicity) lanes in the order
// their first thread appears — 3 lanes on average for the 55-thread balanced
// placements of the 64–128-core hetero study — and one placement-phase
// evaluation costs O(lanes), not O(threads):
//
//  1. The fixed point advances one CPI per lane per iteration, and a
//     placement's offered bus traffic is Σ_l count_l · contrib_l over its
//     lanes. Average L2 miss rate, summed per-core IPC and the worst CPI are
//     the same multiplicity-weighted reductions (placementCycles); what is
//     left of the cycle accounting after them is one shared tail
//     (wallCycles), which Search's bound pass calls too.
//  2. Across the placements of a sweep, the miss-rate-per-group-load table
//     depends only on the phase, so it is computed once for the whole sweep.
//     So is the accounting's per-phase record (phaseAcct): the phase
//     scalars, and the parallel share, critical-section, idiosyncrasy and
//     sync terms of each thread count, filled on the phase's first use of
//     that count.
//  3. Everything in a lane's CPI that does not change across fixed-point
//     iterations is precomputed once per lane, leaving the per-iteration step
//     a handful of element-wise operations over struct-of-arrays lane blocks.
//     Lanes from up to sweepSolveBlock placements advance together, each
//     placement carrying its own bus factor and a convergence mask that
//     retires it the moment the damped update stops moving (the update is
//     idempotent from that point, so skipping the rest is exact).
//  4. A placement's lane list (its plan) depends only on the topology and
//     class layout, never on the phase. A sweep resolves each placement's
//     plan into one scratch slice just before queueing its lanes and keeps
//     nothing between calls. A Search, which scores the same placements for
//     every phase, resolves each lane list once, when it is built, and per
//     phase derives each distinct (class, load) lane once, in the key table
//     of its bound pass: its solves copy their lanes from that table, where
//     a sweep derives each lane as it queues it (queueLanes).
//
// What holds bit for bit, test-enforced: RunPhaseSweep equals RunPhase per
// placement in slice order (both run solveBlock/finishPlacement), memoised
// equals memo-less, any GOMAXPROCS, and the vector lane kernel equals the
// scalar one (AVX2 and -tags actor_noasm builds) — the kernel is
// element-wise and every reduction below is the same scalar Go on every
// build. What does not: PR ≤ 14 summed one term per thread, so its outputs
// differ from these in the last ULPs (k equal addends versus one product);
// TestLaneModelMatchesPerThreadReference bounds the difference at 1e-12
// relative against a per-thread reference in that older order.
//
// Go may fuse a*b + c into one FMA instruction where the target has one
// (go1.24 does on arm64, not on amd64), which rounds once where amd64
// rounds twice. An explicit float64(...) conversion forces the
// product's rounding, so every product that feeds an add or subtract in the
// phase model — here, in machine.go and in internal/cache — is wrapped: the
// reductions, the L2 port-contention factor, the damped bus update, the
// store-traffic and prefetch terms, the cycle accounting. The one fusable
// site left is expLower's polynomial, a pruning bound whose 1e-9 slack
// absorbs either rounding and which moves only which placements are solved,
// never Best's answer. `GOARCH=arm64 go build
// -gcflags=github.com/greenhpc/actor/internal/machine=-S ./internal/machine`
// lists every fused instruction (FMADDD, FMSUBD, FNMSUBD) with its line, and
// `make fma-check` fails on any whose line lacks a `// fma-ok:` marker —
// only expLower's carries one.
//
// Scratch state lives in a pooled phaseCtx and Result holds no pointer, so
// steady-state evaluation allocates nothing.

// sweepSolveBlock bounds how many memo-missing placements accumulate into
// one multi-lane solve block. The bound keeps scratch memory proportional
// to the block, not the sweep (hetero sweeps reach thousands of
// placements), while still giving the lane kernel wide batches.
const sweepSolveBlock = 64

// phaseCtx is the reusable scratch of one phase evaluation (or one sweep).
// A pooled context carries nothing from one call to the next but buffer
// capacity and the response-seed prefix (respFP/respSeed, keyed by the
// fingerprint it was folded from), so any machine may pick it up.
type phaseCtx struct {
	occ []int // per-L2-group occupancy of the placement being prepared

	// missByLoad caches m.l2.MissRateShared per group load for the phase
	// the context was last reset for; valid across every placement of one
	// sweep. Index 0 holds the (degenerate) load-zero value for cores
	// outside any L2 group.
	missByLoad []float64
	haveMiss   []bool

	// acct is the per-phase part of the cycle accounting, valid across
	// every placement of one sweep or search (see phaseAcct).
	acct phaseAcct

	// keyToLane maps a (class, load) solve key — key = class·(n+1) + load —
	// to laneIndex+1 while one placement's plan is being resolved; keyScratch
	// lists the keys written so the map clears in O(distinct keys).
	keyToLane  []int
	keyScratch []int

	// plan is the lane list of the placement being queued (resolvePlan).
	plan []planLane

	// lanes is the flat struct-of-arrays lane state shared by every
	// placement of the current solve block (see laneState).
	lanes laneState

	// Per-placement solve state for the current block.
	bus       []float64
	traffic   []float64
	converged []bool

	// pend lists the block's placements awaiting solve + finish; on a
	// memoised sweep pendMemo[i] is where pend[i]'s result will be stored.
	pend     []pendingPlacement
	pendMemo []pendingMemo

	// srch is the per-call scratch of Search.Best.
	srch searchScratch

	// respFP/respSeed cache the response-factor hash state after mixing
	// the phase fingerprint and separator — the prefix is identical for
	// every placement of a sweep, so it is folded once per phase and only
	// the placement-name suffix is mixed per result (bit-identical: the
	// FNV fold visits the same bytes in the same order either way).
	respFP   string
	respSeed uint64
}

// planLane is one distinct (class, load) key of a placement and the number
// of its threads that carry it. A placement's plan is its lanes in
// first-appearance order, so lane 0 is the first thread's.
type planLane struct {
	load, ci, cnt int32
}

// pendingPlacement is one memo-missing placement queued into the current
// solve block: its position in the sweep's placements/dst slices and where
// its lanes live in the flat scratch. It holds no pointer — the placement
// itself is read back through idx — so a pooled context never pins a
// caller's placements.
type pendingPlacement struct {
	idx            int
	laneOff, laneN int32
}

// pendingMemo is what a memoised sweep keeps of a miss between lookup and
// store: the two hashes the lookup computed. The verification key is rebuilt
// from the placement at store time (keyFor is field copies).
type pendingMemo struct {
	hash, coresHash uint64
}

// phaseAcct is the part of a placement's cycle accounting that is the same
// for every placement of a phase: the phase scalars, set by resetPhase, and
// the terms that depend only on the placement's thread count n, filled per n
// on first use (thread). The exact path (placementCycles) and Search's bound
// pass both read it and share one tail (wallCycles), so the accounting is
// one formula, derived once per phase rather than once per placement.
type phaseAcct struct {
	idio           float64 // the phase's idiosyncrasy
	mpiL1          float64 // L1 misses per instruction
	freq           float64 // the clock in Hz, DVFS scale included
	parInstr       float64 // instructions of the parallel section
	serInstr       float64 // instructions of the serial section
	instrMpi       float64 // L1 misses over the phase: Instructions·mpiL1
	trafficPerMiss float64 // bus bytes moved per L2 miss

	// perN[n] holds the terms of a placement of n threads where ok; it is
	// sized with missByLoad (sizeFor).
	perN []threadAcct
}

// threadAcct is the part of the cycle accounting that depends only on a
// placement's thread count.
type threadAcct struct {
	ok bool
	// parShare is the heaviest thread's share of the parallel
	// instructions: parInstr · imbalance/n.
	parShare float64
	// Critical-section serialisation and hidden idiosyncrasy both grow
	// with thread count; neither is visible in the cache/bus counters.
	crit, idio float64
	sync       float64 // synchronisation cycles
}

var ctxPool = sync.Pool{New: func() any { return &phaseCtx{} }}

// resetPhase points the context's per-phase state at phase p with
// idiosyncrasy idio on machine m: it sets the accounting's phase scalars and
// invalidates the miss-rate and per-thread-count caches.
func (ctx *phaseCtx) resetPhase(m *Machine, p *workload.PhaseProfile, idio float64) {
	for i := range ctx.haveMiss {
		ctx.haveMiss[i] = false
	}
	a := &ctx.acct
	for i := range a.perN {
		a.perN[i].ok = false
	}
	a.idio = idio
	a.mpiL1 = p.MemRefsPerInstr * p.L1MissRate
	a.freq = m.Topo.FrequencyHz * m.clockScale()
	a.parInstr = float64(p.Instructions * p.ParallelFraction)
	a.serInstr = p.Instructions - a.parInstr
	a.instrMpi = p.Instructions * a.mpiL1
	lineBytes := 64.0
	storeFrac := 1 - p.LoadFraction
	a.trafficPerMiss = lineBytes * (1 + float64(p.StoreBandwidthBoost*storeFrac))
}

// thread returns the accounting terms of a placement of n threads of phase
// p, computed on the phase's first use of n (fillThread). The context must
// be sized for n (sizeFor).
func (a *phaseAcct) thread(p *workload.PhaseProfile, n int) *threadAcct {
	if t := &a.perN[n]; t.ok {
		return t
	}
	return a.fillThread(p, n)
}

// fillThread computes and caches the accounting terms of n threads.
func (a *phaseAcct) fillThread(p *workload.PhaseProfile, n int) *threadAcct {
	t := &a.perN[n]
	imb := imbalanceFactor(p.ChunkGranularity, n)
	t.parShare = float64(a.parInstr * (imb / float64(n)))
	t.crit = 1 + float64(p.CriticalFraction*float64(n-1))
	t.idio = 1 + a.idio*float64(n-1)/3
	if t.idio < 0.5 {
		t.idio = 0.5
	}
	t.sync = 0
	if n > 1 {
		t.sync = p.SyncCycles * (1 + log2N(n)) * t.idio
	}
	t.ok = true
	return t
}

// resetBlock clears the lane and placement state of the current solve block
// while keeping the per-phase miss cache (and all capacity).
func (ctx *phaseCtx) resetBlock() {
	ctx.lanes.reset()
	ctx.pend = ctx.pend[:0]
	ctx.pendMemo = ctx.pendMemo[:0]
}

// sizeFor grows the per-placement scratch for a placement of n threads over
// nGroups L2 groups (loads at most n) and nClasses core classes (the
// (class, load) key space is nClasses × (n+1)).
func (ctx *phaseCtx) sizeFor(nGroups, n, nClasses int) {
	if cap(ctx.occ) < nGroups {
		ctx.occ = make([]int, nGroups)
	}
	ctx.occ = ctx.occ[:nGroups]
	if cap(ctx.missByLoad) < n+1 {
		grown := make([]float64, n+1)
		copy(grown, ctx.missByLoad)
		ctx.missByLoad = grown
		grownValid := make([]bool, n+1)
		copy(grownValid, ctx.haveMiss)
		ctx.haveMiss = grownValid
	}
	ctx.missByLoad = ctx.missByLoad[:cap(ctx.missByLoad)]
	ctx.haveMiss = ctx.haveMiss[:cap(ctx.haveMiss)]
	if cap(ctx.acct.perN) < n+1 {
		grown := make([]threadAcct, n+1)
		copy(grown, ctx.acct.perN)
		ctx.acct.perN = grown
	}
	ctx.acct.perN = ctx.acct.perN[:cap(ctx.acct.perN)]
	if keySpace := nClasses * (n + 1); cap(ctx.keyToLane) < keySpace {
		// Entries are always cleared back to zero after each placement, so
		// growth may start from a fresh zeroed array.
		ctx.keyToLane = make([]int, keySpace)
	}
	ctx.keyToLane = ctx.keyToLane[:cap(ctx.keyToLane)]
}

// missFor returns the phase's L2 miss rate at the given group load, from
// the per-phase cache when already solved in this sweep.
func (ctx *phaseCtx) missFor(m *Machine, p *workload.PhaseProfile, load int) float64 {
	if !ctx.haveMiss[load] {
		ctx.missByLoad[load] = m.l2.MissRateShared(p.WorkingSetBytes, load, p.SharingFactor, p.ColdMissRate, p.LocalityExp)
		ctx.haveMiss[load] = true
	}
	return ctx.missByLoad[load]
}

// computePhase is the deterministic phase model — everything RunPhase does
// except measurement noise — on pooled scratch: a solve block of one.
func (m *Machine) computePhase(p *workload.PhaseProfile, idio float64, pl topology.Placement, res *Result) {
	ctx := ctxPool.Get().(*phaseCtx)
	ctx.resetPhase(m, p, idio)
	ctx.resetBlock()
	m.prepPlacement(ctx, p, &pl, 0)
	m.solveBlock(ctx, p)
	m.finishPlacement(ctx, 0, &pl, p, res)
	ctxPool.Put(ctx)
}

// prepPlacement appends the placement at index idx to the current solve
// block: its plan resolved into the context's scratch, then one lane per plan
// entry (see queueLanes).
func (m *Machine) prepPlacement(ctx *phaseCtx, p *workload.PhaseProfile, pl *topology.Placement, idx int) {
	n := pl.Threads()
	if n == 0 {
		panic("machine: placement with no cores")
	}
	ctx.sizeFor(len(m.Topo.L2Groups), n, len(m.classes))
	ctx.plan = m.resolvePlan(ctx, ctx.plan[:0], pl.Cores)
	m.queueLanes(ctx, p, ctx.plan, idx)
}

// queueLanes appends the placement at index idx, whose plan is lanes, to the
// current solve block: one lane per plan entry, with the iteration-invariant
// part of that lane's CPI fully factored out (appendLane).
func (m *Machine) queueLanes(ctx *phaseCtx, p *workload.PhaseProfile, lanes []planLane, idx int) {
	lt := m.laneTermsOf(p)
	laneOff := ctx.lanes.len()
	for _, ln := range lanes {
		m.appendLane(ctx, p, ln, &lt)
	}
	ctx.pend = append(ctx.pend, pendingPlacement{
		idx: idx, laneOff: int32(laneOff), laneN: int32(len(lanes)),
	})
}

// resolvePlan appends the plan of a placement over cores to dst and returns
// the extended slice: each thread's solve key is its core's class and the
// number of placement threads sharing its L2 group, and each distinct key
// becomes one lane, counted once per thread that carries it. ctx must be
// sized for the placement (sizeFor).
func (m *Machine) resolvePlan(ctx *phaseCtx, dst []planLane, cores []topology.CoreID) []planLane {
	lo := len(dst)

	// Per-L2-group occupancy of this placement.
	occ := ctx.occ
	for i := range occ {
		occ[i] = 0
	}
	for _, c := range cores {
		if g := m.groupOf(c); g >= 0 {
			occ[g]++
		}
	}

	stride := len(cores) + 1
	for _, c := range cores {
		load := 0
		if g := m.groupOf(c); g >= 0 {
			load = occ[g]
		}
		ci := m.classIdxOf(c)
		keyv := ci*stride + load
		ln := ctx.keyToLane[keyv]
		if ln == 0 {
			dst = append(dst, planLane{load: int32(load), ci: int32(ci)})
			ln = len(dst) - lo // lane index + 1
			ctx.keyToLane[keyv] = ln
			ctx.keyScratch = append(ctx.keyScratch, keyv)
		}
		dst[lo+ln-1].cnt++
	}
	for _, kv := range ctx.keyScratch {
		ctx.keyToLane[kv] = 0
	}
	ctx.keyScratch = ctx.keyScratch[:0]
	return dst
}

// laneTerms are the phase-level terms of the CPI composition, identical for
// every lane of a phase.
type laneTerms struct {
	mpiL1, branch, tlb, mlpL2, memPfx float64
}

func (m *Machine) laneTermsOf(p *workload.PhaseProfile) laneTerms {
	return laneTerms{
		mpiL1:  p.MemRefsPerInstr * p.L1MissRate,
		branch: p.BranchRate * p.BranchMissRate * m.params.BranchMissPenaltyCycles,
		tlb:    p.MemRefsPerInstr * p.TLBMissRate * m.params.TLBMissPenaltyCycles,
		mlpL2:  math.Max(1, 0.7*p.MLP), // L2 hits overlap slightly less than misses
		memPfx: m.params.MemLatencyCycles * m.clockScale(),
	}
}

// appendLane creates one (class, load) lane, factoring everything that does
// not change across fixed-point iterations out of threadCPI while
// preserving the exact association order of the scalar expressions (see
// lanes.go for the term-by-term correspondence).
func (m *Machine) appendLane(ctx *phaseCtx, p *workload.PhaseProfile, ln planLane, lt *laneTerms) {
	load := int(ln.load)
	missL2 := ctx.missFor(m, p, load)
	cls := &m.classes[ln.ci]
	coreCPI := cls.CPIMult / p.BaseIPC
	l2Lat := m.params.L2LatencyCycles
	if load > 1 {
		l2Lat *= 1 + float64(0.35*float64(load-1))
	}
	l2Term := lt.mpiL1 * (1 - missL2) * l2Lat / lt.mlpL2
	ctx.lanes.append(
		coreCPI+lt.branch+lt.tlb+l2Term,   // CPI base: core + branch + TLB + L2
		lt.memPfx*cls.FreqMult,            // memory-latency prefix (× busFactor × prefetchHide per iter)
		lt.mpiL1*missL2,                   // L2 misses per instruction
		cls.CPIMult/m.params.PeakIssueIPC, // issue-width clamp
		cls.FreqMult,                      // nominal-clock referencing divisor
		float64(ln.cnt),
		missL2,
	)
}

// solveBlock iterates the CPI ↔ bus-bandwidth fixed point for every
// placement of the current block at once: one lane step advances every
// lane of every unconverged placement, then each placement reduces its
// lanes' offered traffic, weighted by multiplicity in lane order, and
// applies the damped bus-factor update. A placement whose update leaves the
// bus factor unchanged is converged — every remaining iteration would
// reproduce the same state bit-for-bit, so its lanes are masked and it stops
// paying for the rest of the loop.
func (m *Machine) solveBlock(ctx *phaseCtx, p *workload.PhaseProfile) {
	nPl := len(ctx.pend)
	if cap(ctx.bus) < nPl {
		ctx.bus = make([]float64, nPl)
		ctx.traffic = make([]float64, nPl)
		ctx.converged = make([]bool, nPl)
	}
	ctx.bus = ctx.bus[:nPl]
	ctx.traffic = ctx.traffic[:nPl]
	ctx.converged = ctx.converged[:nPl]
	for o := range ctx.bus {
		ctx.bus[o] = 1
		ctx.traffic[o] = 0
		ctx.converged[o] = false
	}
	ls := &ctx.lanes
	ls.sizeDerived()

	remaining := nPl
	for iter := 0; iter < m.params.FixedPointIters && remaining > 0; iter++ {
		// Advance every live lane in one element-wise step; each lane reads
		// its placement's bus factor from ls.bus, which starts at 1
		// (sizeDerived) and is rewritten below by the update that moves it.
		m.stepLanes(ctx, p)

		for o := range ctx.pend {
			if ctx.converged[o] {
				continue
			}
			pe := &ctx.pend[o]
			lo, hi := int(pe.laneOff), int(pe.laneOff+pe.laneN)
			// Offered FSB traffic: every thread of a lane offers the same.
			var traffic float64
			for l := lo; l < hi; l++ {
				traffic += float64(ls.cnt[l] * ls.contrib[l])
			}
			newFactor := m.fsb.LatencyFactor(traffic)
			updated := float64(0.5*ctx.bus[o]) + float64(0.5*newFactor)
			ctx.traffic[o] = traffic
			if updated == ctx.bus[o] {
				// Exact fixed point: every further iteration recomputes
				// this identical state. Retire the placement and mask its
				// lanes out of subsequent steps.
				ctx.converged[o] = true
				remaining--
				for l := lo; l < hi; l++ {
					ls.done[l] = true
				}
				continue
			}
			ctx.bus[o] = updated
			for l := lo; l < hi; l++ {
				ls.bus[l] = updated
			}
		}
	}
}

// stepLanes advances every live lane of the block one fixed-point step at
// its placement's current bus factor: the phase-level operands of the lane
// kernel, then the kernel itself (advanceLanes).
func (m *Machine) stepLanes(ctx *phaseCtx, p *workload.PhaseProfile) {
	prefetchHide := 1 - float64(0.6*p.PrefetchFriendly)
	advanceLanes(&ctx.lanes, prefetchHide, p.MLP, ctx.acct.freq, ctx.acct.trafficPerMiss)
}

// log2Tab caches math.Log2(n) for the thread counts that actually occur —
// the sync-cost term recomputed the same logarithm for every result. Each
// entry is exactly math.Log2(float64(n)).
const log2TabMax = 256

var log2Tab = func() [log2TabMax + 1]float64 {
	var t [log2TabMax + 1]float64
	for i := 1; i < len(t); i++ {
		t[i] = math.Log2(float64(i))
	}
	return t
}()

// log2N returns math.Log2(float64(n)), from the table when n is in range.
func log2N(n int) float64 {
	if n >= 0 && n <= log2TabMax {
		return log2Tab[n]
	}
	return math.Log2(float64(n))
}

// responseFactorCtx derives the deterministic per-(phase, placement)
// execution perturbation from the phase fingerprint: a log-normal-ish factor
// exp(ResponseSigma·z) with z from responseZ, identical on every run (it is
// part of the machine's ground truth, not measurement noise). Single-thread
// executions are unperturbed: the idiosyncrasies modelled here are
// interactions with the co-location of threads. The fingerprint's prefix of
// the hash is cached in the context, since every placement of a sweep shares
// it. The per-thread reference (reference_test.go) derives the same factor
// on its own, bit for bit (test-enforced).
func (m *Machine) responseFactorCtx(ctx *phaseCtx, p *workload.PhaseProfile, pl *topology.Placement) float64 {
	if m.params.ResponseSigma <= 0 || p.Fingerprint == "" || pl.Threads() <= 1 {
		return 1
	}
	if ctx.respFP != p.Fingerprint {
		ctx.respFP, ctx.respSeed = p.Fingerprint, responseSeed(p.Fingerprint)
	}
	return math.Exp(m.params.ResponseSigma * responseZ(ctx.respSeed, pl.Name))
}

// responseSeed is the hash state after folding a phase fingerprint and the
// "|" separator: the prefix every placement's response hash starts from.
// The fold is FNV-1a's loop and prime from 1469598103934665603, which is
// not FNV's 64-bit offset basis (14695981039346656037); the value is kept
// because every simulated response, and so every pinned output, hashes
// through it.
func responseSeed(fingerprint string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(fingerprint); i++ {
		h ^= uint64(fingerprint[i])
		h *= 1099511628211
	}
	h ^= uint64('|')
	h *= 1099511628211
	return h
}

// responseZ folds a placement name into a phase's response seed and maps the
// hash to an approximately standard normal value by summing uniform draws
// (Irwin–Hall with n=4, variance 1/3 each → scale), so |z| ≤ 2√3.
func responseZ(seed uint64, name string) float64 {
	h := seed
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	var z float64
	for i := 0; i < 4; i++ {
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		u := float64(h%1_000_003) / 1_000_003.0
		z += u - 0.5
	}
	return z * math.Sqrt(3) // var(sum of 4 U(-0.5,0.5)) = 1/3 → scale to 1
}

// serialCycles is the serial section's cycles at bus factor busFactor. The
// serial section runs on one thread — the placement's first core, of class
// cls, with a single-thread L2 share.
func (m *Machine) serialCycles(ctx *phaseCtx, p *workload.PhaseProfile, busFactor float64, cls *topology.CoreClass) float64 {
	serCPI := m.threadCPI(p, ctx.acct.mpiL1, ctx.missFor(m, p, 1), busFactor, 1, cls) / cls.FreqMult
	return float64(ctx.acct.serInstr * serCPI)
}

// wallCycles is the tail of the cycle accounting every caller shares, before
// the response factor, which its callers apply: the serial section's cycles
// serCycles, the heaviest thread's parallel share at maxCPI, the worst lane
// CPI, and synchronisation, against the bandwidth wall that sumMiss, the
// lanes' multiplicity-weighted L2 miss rates, sets. t holds the terms of the
// placement's thread count n. It returns the wall cycles and the average L2
// miss rate.
//
// Every operation from the bus factor and the lane CPIs to the wall cycles —
// here, in serialCycles and in the lane step — is a sum or product of
// non-negative operands, a max or a division by a positive constant, so for
// a phase that passes Validate and parameters WithParams accepts, the wall
// cycles are monotone non-decreasing in the bus factor and in each lane's
// CPI — the lower bound Search prunes by rests on that.
func (m *Machine) wallCycles(a *phaseAcct, t *threadAcct, n int, serCycles, maxCPI, sumMiss float64) (wall, avgMissL2 float64) {
	avgMissL2 = sumMiss / float64(n)
	parCycles := float64(t.parShare * maxCPI * t.crit * t.idio)
	wall = serCycles + parCycles + t.sync

	// Bandwidth wall: the phase cannot finish faster than its total bus
	// traffic takes to transfer. In the saturated regime execution time is
	// proportional to bytes moved — the mechanism behind IS and MG losing
	// performance when destructive L2 sharing multiplies their misses.
	//
	// Note: near saturation the queueing factor and this wall overlap
	// slightly; lowering the clock reduces offered load and hence
	// queueing, which can shave up to ~10% off a saturated phase's
	// latency-inflated compute path. The wall bounds the effect; it is a
	// known, benign artifact of the analytic composition.
	if bw := m.fsb.MinTransferTime(a.instrMpi*avgMissL2*a.trafficPerMiss) * a.freq; bw > wall {
		wall = bw
	}
	return wall, avgMissL2
}

// placementCycles is the exact cycle accounting of the placement in solve
// block slot o, of n threads whose first core has class cls0, at the slot's
// solved bus factor: one pass over its lanes — the slowest thread gates the
// end-of-phase barrier (the heaviest chunk share executed at the worst CPI),
// and the per-core IPC and L2 miss rate sum with each lane's multiplicity, in
// plan order — then the shared tail (wallCycles). A lane whose CPI is not
// positive contributes no IPC rather than +Inf. It returns the wall cycles
// before the response factor, the average L2 miss rate and the summed
// per-core IPC.
func (m *Machine) placementCycles(ctx *phaseCtx, o int, p *workload.PhaseProfile, n int, cls0 *topology.CoreClass) (wallCycles, avgMissL2, sumIPC float64) {
	pe := &ctx.pend[o]
	lo, hi := int(pe.laneOff), int(pe.laneOff+pe.laneN)
	ls := &ctx.lanes
	t := ctx.acct.thread(p, n)
	var maxCPI, sumMiss float64
	cnt, miss := ls.cnt[lo:hi], ls.miss[lo:hi]
	for l, c := range ls.cpi[lo:hi] {
		if c > maxCPI {
			maxCPI = c
		}
		if c > 0 {
			sumIPC += float64(cnt[l] * (1 / (c * t.crit * t.idio)))
		}
		sumMiss += float64(cnt[l] * miss[l])
	}
	wallCycles, avgMissL2 = m.wallCycles(&ctx.acct, t, n, m.serialCycles(ctx, p, ctx.bus[o], cls0), maxCPI, sumMiss)
	return wallCycles, avgMissL2, sumIPC
}

// finishPlacement turns one solved placement into *res: cycle accounting
// (placementCycles) at the solved bus factor times the response factor, PMU
// event synthesis and power-model activity. o is the placement's index within
// the solve block (its slot in ctx.pend/ctx.bus/ctx.traffic) and pl the
// placement queued there. Every field of *res is overwritten.
func (m *Machine) finishPlacement(ctx *phaseCtx, o int, pl *topology.Placement, p *workload.PhaseProfile, res *Result) {
	busFactor := ctx.bus[o]
	n := pl.Threads()
	cls0 := m.classOf(pl.Cores[0])
	wallCycles, avgMissL2, sumIPC := m.placementCycles(ctx, o, p, n, cls0)
	wallCycles *= m.responseFactorCtx(ctx, p, pl)
	busUtil := m.fsb.Utilization(ctx.traffic[o])
	timeSec := wallCycles / ctx.acct.freq

	res.TimeSec = timeSec
	res.WallCycles = wallCycles
	res.AggIPC = p.Instructions / wallCycles

	// --- Event counts ---------------------------------------------------
	m.eventCounts(&res.Counts, p, avgMissL2, wallCycles, busUtil, cls0)

	// --- Activity for the power model ------------------------------------
	// The representative core is the placement's first: lane 0's.
	stall := m.stallFraction(p, ctx.acct.mpiL1, ctx.lanes.miss[ctx.pend[o].laneOff], busFactor, cls0)
	res.Activity = Activity{
		TimeSec:          timeSec,
		ActiveCores:      n,
		TotalCores:       m.Topo.NumCores,
		AvgCoreIPC:       sumIPC / float64(n),
		PeakIPC:          m.params.PeakIssueIPC,
		AvgCoreUtil:      1 - stall,
		BusUtilization:   busUtil,
		BusBytes:         res.Counts[pmu.BusTransMem] * 64,
		L2AccessesPerSec: res.Counts[pmu.L2References] / math.Max(timeSec, 1e-12),
		FreqScale:        m.clockScale(),
	}
}

// RunPhaseSweep evaluates phase p with idiosyncrasy idio under every
// placement of placements, writing the result for placements[i] into
// dst[i]. It is semantically identical — bit for bit, including the order
// measurement-noise draws are consumed in — to calling RunPhase once per
// placement in slice order, but hoists the per-phase invariant part of the
// solve (the L2 miss-rate table, the scratch buffers, the memo key prefix)
// out of the placement loop and solves memo-missing placements as
// multi-lane blocks (see solveBlock). It allocates nothing once the pooled
// scratch is warm; a memoised machine allocates the entry it stores per miss.
//
// It panics when dst is shorter than placements, mirroring RunPhase's
// contract violations.
func (m *Machine) RunPhaseSweep(p *workload.PhaseProfile, idio float64, placements []topology.Placement, dst []Result) {
	if len(dst) < len(placements) {
		panic("machine: RunPhaseSweep dst shorter than placements")
	}
	ctx := ctxPool.Get().(*phaseCtx)
	m.sweepOn(ctx, p, idio, placements, dst)
	ctxPool.Put(ctx)
}

// sweepOn is RunPhaseSweep on the given scratch context.
func (m *Machine) sweepOn(ctx *phaseCtx, p *workload.PhaseProfile, idio float64, placements []topology.Placement, dst []Result) {
	ctx.resetPhase(m, p, idio)
	ctx.resetBlock()
	useMemo := m.memo != nil && p.Fingerprint != ""
	var seed uint64
	if useMemo {
		seed = m.memoSeed(p)
	}
	flush := func() {
		if len(ctx.pend) == 0 {
			return
		}
		m.solveBlock(ctx, p)
		for o := range ctx.pend {
			idx := ctx.pend[o].idx
			pl := &placements[idx]
			m.finishPlacement(ctx, o, pl, p, &dst[idx])
			if useMemo {
				pm := ctx.pendMemo[o]
				m.memo.Put(pm.hash, m.keyFor(p, idio, pl, pm.coresHash), dst[idx])
			}
		}
		ctx.resetBlock()
	}
	for i := range placements {
		pl := &placements[i]
		if useMemo {
			coresHash := hashCores(pl.Cores)
			hash := memoHash(seed, idio, pl, coresHash)
			key := m.keyFor(p, idio, pl, coresHash)
			if res := m.memo.Get(hash, &key); res != nil {
				dst[i] = *res
				continue
			}
			ctx.pendMemo = append(ctx.pendMemo, pendingMemo{hash: hash, coresHash: coresHash})
		}
		m.prepPlacement(ctx, p, pl, i)
		if len(ctx.pend) >= sweepSolveBlock {
			flush()
		}
	}
	flush()
	if m.noiseSrc != nil {
		for i := range placements {
			m.perturb(&dst[i])
		}
	}
}
