package machine

import (
	"math"
	"sync"

	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// This file is the batched phase-sweep engine: the multi-lane form of the
// phase model plus RunPhaseSweep, which evaluates one phase across many
// placements in a single call.
//
// Three observations make the solve cheap without changing a single output
// bit:
//
//  1. Within a placement, a thread's L2 miss rate depends on the placement
//     only through its group load (how many placement threads share its
//     L2), and its CPI only through (core class, group load). A 32-thread
//     placement on paired-L2 groups of one class has at most two distinct
//     (class, load) keys, so the fixed point needs two threadCPI solves
//     per iteration instead of 32. Per-thread quantities are then fanned
//     back out in thread order, so every sum accumulates the exact same
//     values in the exact same order as the per-thread loop did. On
//     homogeneous machines the class dimension is a single value and the
//     key degenerates to the bare load — the dedup is test-enforced
//     bit-identical to the per-thread loop either way.
//  2. Across the placements of a sweep, the miss-rate-per-group-load table
//     depends only on the phase, so it is computed once for the whole
//     sweep rather than once per placement.
//  3. Each distinct (class, load) key is a *lane*: everything in its CPI
//     that does not change across fixed-point iterations — the core,
//     branch, TLB and L2 terms, the memory-latency prefix, the L2-miss
//     traffic weight, the issue-width clamp — is precomputed once per
//     lane, leaving the per-iteration step a handful of element-wise
//     operations over struct-of-arrays lane blocks (see lanes.go). Lanes
//     from up to sweepSolveBlock placements advance together in one
//     iteration, each placement carrying its own bus factor and a
//     convergence mask that retires it the moment the damped update stops
//     moving (the update is idempotent from that point, so skipping the
//     remaining iterations is exact). Every factored term is the same
//     float product, in the same order, the scalar expression computed —
//     bit-identity is by construction and test-enforced.
//
// Scratch state lives in a pooled phaseCtx, so steady-state evaluation
// allocates only each Result's PerThreadIPC slice (and nothing at all when
// the memo serves a hit).

// sweepSolveBlock bounds how many memo-missing placements accumulate into
// one multi-lane solve block. The bound keeps scratch memory proportional
// to the block, not the sweep (hetero sweeps reach thousands of
// placements), while still giving the lane kernel wide batches.
const sweepSolveBlock = 64

// phaseCtx is the reusable scratch of one phase evaluation (or one sweep).
type phaseCtx struct {
	occ []int // per-L2-group occupancy of the placement being prepared

	// missByLoad caches m.l2.MissRateShared per group load for the phase
	// the context was last reset for; valid across every placement of one
	// sweep. Index 0 holds the (degenerate) load-zero value for cores
	// outside any L2 group.
	missByLoad []float64
	haveMiss   []bool

	// keyToLane maps a (class, load) solve key — key = class·(n+1) + load —
	// to laneIndex+1 while one placement is being prepared; keyScratch
	// lists the keys written so the map clears in O(distinct keys).
	keyToLane  []int
	keyScratch []int

	// lanes is the flat struct-of-arrays lane state shared by every
	// placement of the current solve block (see laneState).
	lanes laneState

	// Per-thread state, flat across the block's placements.
	thrLane []int     // lane index of each thread
	thrMiss []float64 // each thread's L2 miss rate

	// Per-placement solve state for the current block.
	bus       []float64
	traffic   []float64
	converged []bool

	// pend lists the block's placements awaiting solve + finish.
	pend []pendingPlacement

	// respFP/respSeed cache the response-factor hash state after mixing
	// the phase fingerprint and separator — the prefix is identical for
	// every placement of a sweep, so it is folded once per phase and only
	// the placement-name suffix is mixed per result (bit-identical: the
	// FNV fold visits the same bytes in the same order either way).
	respFP   string
	respSeed uint64

	// plans caches each placement's solve structure — thread loads, the
	// thread→lane fanout and the (class, load) key of every lane — keyed by
	// the placement's cores hash. The structure depends only on the
	// topology and class layout, never on the phase, so sweeping the same
	// placements across many phases (the future-scaling pattern) resolves
	// keys once instead of once per phase. planTopo/planSig pin the
	// machine the plans were built against; a pooled context picked up by
	// a machine with a different topology or class layout drops them.
	plans    map[uint64]*placementPlan
	planTopo *topology.Topology
	planSig  uint64
}

// placementPlan is the phase-independent solve structure of one placement.
// Replaying it appends lanes (and the thread fanout) in exactly the order
// the key-resolution loop discovered them, so the solve consumes identical
// state either way.
type placementPlan struct {
	cores    []topology.CoreID // exact cores (verifies hash-keyed lookups)
	loads    []int32           // per-thread L2-group load
	thrLane  []int32           // per-thread lane index, plan-relative
	laneLoad []int32           // per-lane group load (first-appearance order)
	laneCi   []int32           // per-lane class index
}

// pendingPlacement is one memo-missing placement queued into the current
// solve block: where its lanes and threads live in the flat scratch, and
// everything needed to finish the result and insert it into the memo.
type pendingPlacement struct {
	idx  int // position in the sweep's placements/dst slices
	pl   topology.Placement
	hash uint64 // memo hash/key (memoised sweeps only)
	key  memoKey

	laneOff, laneN int
	thrOff, n      int
}

var ctxPool = sync.Pool{New: func() any { return &phaseCtx{} }}

// resetPhase invalidates the per-phase miss-rate cache.
func (ctx *phaseCtx) resetPhase() {
	for i := range ctx.haveMiss {
		ctx.haveMiss[i] = false
	}
}

// resetBlock clears the lane, thread and placement state of the current
// solve block while keeping the per-phase miss cache (and all capacity).
func (ctx *phaseCtx) resetBlock() {
	ctx.lanes.reset()
	ctx.thrLane = ctx.thrLane[:0]
	ctx.thrMiss = ctx.thrMiss[:0]
	ctx.pend = ctx.pend[:0]
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
// except measurement noise — on pooled scratch.
func (m *Machine) computePhase(p *workload.PhaseProfile, idio float64, pl topology.Placement) Result {
	ctx := ctxPool.Get().(*phaseCtx)
	ctx.resetPhase()
	res := m.computePhaseCtx(ctx, p, idio, pl)
	ctxPool.Put(ctx)
	return res
}

// computePhaseCtx evaluates the phase model for one placement using (and
// filling) the context's per-phase caches: a solve block of one. The caller
// must have reset the context when switching phase, machine parameters, or
// L2 capacity.
func (m *Machine) computePhaseCtx(ctx *phaseCtx, p *workload.PhaseProfile, idio float64, pl topology.Placement) Result {
	ctx.resetBlock()
	ctx.bindMachine(m)
	m.prepPlacement(ctx, p, pl, 0, hashCores(pl.Cores), 0, memoKey{})
	m.solveBlock(ctx, p)
	return m.finishPlacement(ctx, &ctx.pend[0], 0, p, idio, make([]float64, ctx.pend[0].n))
}

// prepPlacement appends one placement to the current solve block: it
// resolves each thread's (class, load) solve key, creates one lane per
// distinct key with the iteration-invariant part of that key's CPI fully
// factored out, and records the thread→lane fanout. The factored terms are
// the exact sub-expressions (same operands, same order) of the scalar
// threadCPI composition, so the per-iteration lane step reproduces it
// bit-for-bit (see lanes.go).
func (m *Machine) prepPlacement(ctx *phaseCtx, p *workload.PhaseProfile, pl topology.Placement, idx int, coresHash, hash uint64, key memoKey) {
	n := pl.Threads()
	if n == 0 {
		panic("machine: placement with no cores")
	}
	ctx.sizeFor(len(m.Topo.L2Groups), n, len(m.classes))

	// Phase-level terms of the CPI composition (identical for every lane).
	mpiL1 := p.MemRefsPerInstr * p.L1MissRate
	branch := p.BranchRate * p.BranchMissRate * m.params.BranchMissPenaltyCycles
	tlb := p.MemRefsPerInstr * p.TLBMissRate * m.params.TLBMissPenaltyCycles
	mlpL2 := math.Max(1, 0.7*p.MLP) // L2 hits overlap slightly less than misses
	memPfx := m.params.MemLatencyCycles * m.clockScale()

	thrOff := len(ctx.thrLane)
	laneOff := ctx.lanes.len()

	if plan, ok := ctx.plans[coresHash]; ok && coresEqual(plan.cores, pl.Cores) {
		// Structure already resolved for these cores by an earlier phase:
		// replay the lanes in their recorded first-appearance order, then
		// the thread fanout — the identical appends the resolution loop
		// below would have made.
		for k := range plan.laneLoad {
			m.appendLane(ctx, p, int(plan.laneLoad[k]), int(plan.laneCi[k]), mpiL1, branch, tlb, mlpL2, memPfx)
		}
		for t, ln := range plan.thrLane {
			ctx.thrLane = append(ctx.thrLane, laneOff+int(ln))
			ctx.thrMiss = append(ctx.thrMiss, ctx.missByLoad[plan.loads[t]])
		}
		ctx.pend = append(ctx.pend, pendingPlacement{
			idx: idx, pl: pl, hash: hash, key: key,
			laneOff: laneOff, laneN: len(plan.laneLoad),
			thrOff: thrOff, n: n,
		})
		return
	}

	// Per-L2-group occupancy of this placement.
	occ := ctx.occ
	for i := range occ {
		occ[i] = 0
	}
	for _, c := range pl.Cores {
		if g := m.groupOf(c); g >= 0 {
			occ[g]++
		}
	}

	plan := &placementPlan{
		cores:   pl.Cores,
		loads:   make([]int32, 0, n),
		thrLane: make([]int32, 0, n),
	}
	stride := n + 1
	for _, c := range pl.Cores {
		load := 0
		if g := m.groupOf(c); g >= 0 {
			load = occ[g]
		}
		keyv := load
		ci := m.classIdxOf(c)
		if ci > 0 {
			keyv += ci * stride
		}
		ln := ctx.keyToLane[keyv]
		if ln == 0 {
			m.appendLane(ctx, p, load, ci, mpiL1, branch, tlb, mlpL2, memPfx)
			ln = ctx.lanes.len() // global lane index + 1 (len is idx+1 post-append)
			ctx.keyToLane[keyv] = ln
			ctx.keyScratch = append(ctx.keyScratch, keyv)
			plan.laneLoad = append(plan.laneLoad, int32(load))
			plan.laneCi = append(plan.laneCi, int32(ci))
		}
		ctx.thrLane = append(ctx.thrLane, ln-1)
		ctx.thrMiss = append(ctx.thrMiss, ctx.missByLoad[load])
		plan.loads = append(plan.loads, int32(load))
		plan.thrLane = append(plan.thrLane, int32(ln-1-laneOff))
	}
	for _, kv := range ctx.keyScratch {
		ctx.keyToLane[kv] = 0
	}
	ctx.keyScratch = ctx.keyScratch[:0]

	// Cache the structure for the next phase's sweep. A 64-bit-hash
	// collision (cores mismatch above) leaves the first plan in place; the
	// colliding placement just resolves unplanned every time.
	if _, taken := ctx.plans[coresHash]; !taken {
		if ctx.plans == nil {
			ctx.plans = make(map[uint64]*placementPlan)
		}
		ctx.plans[coresHash] = plan
	}

	ctx.pend = append(ctx.pend, pendingPlacement{
		idx: idx, pl: pl, hash: hash, key: key,
		laneOff: laneOff, laneN: ctx.lanes.len() - laneOff,
		thrOff: thrOff, n: n,
	})
}

// appendLane creates one (class, load) lane, factoring everything that does
// not change across fixed-point iterations out of threadCPI while
// preserving the exact association order of the scalar expressions (see
// lanes.go for the term-by-term correspondence).
func (m *Machine) appendLane(ctx *phaseCtx, p *workload.PhaseProfile, load, ci int, mpiL1, branch, tlb, mlpL2, memPfx float64) {
	missL2 := ctx.missFor(m, p, load)
	cls := &m.classes[ci]
	coreCPI := cls.CPIMult / p.BaseIPC
	l2Lat := m.params.L2LatencyCycles
	if load > 1 {
		l2Lat *= 1 + 0.35*float64(load-1)
	}
	l2Term := mpiL1 * (1 - missL2) * l2Lat / mlpL2
	ctx.lanes.append(
		coreCPI+branch+tlb+l2Term,         // CPI base: core + branch + TLB + L2
		memPfx*cls.FreqMult,               // memory-latency prefix (× busFactor × prefetchHide per iter)
		mpiL1*missL2,                      // L2 misses per instruction
		cls.CPIMult/m.params.PeakIssueIPC, // issue-width clamp
		cls.FreqMult,                      // nominal-clock referencing divisor
	)
}

// bindMachine drops machine-derived caches when a pooled context is reused
// by a machine with a different topology or class layout. Plans depend only
// on (Topo, classSig), so machines derived via WithNoise/WithFrequency/
// WithMemo — which share both — keep each other's plans warm.
func (ctx *phaseCtx) bindMachine(m *Machine) {
	if ctx.planTopo == m.Topo && ctx.planSig == m.classSig {
		return
	}
	ctx.planTopo, ctx.planSig = m.Topo, m.classSig
	ctx.plans = nil
}

func coresEqual(a, b []topology.CoreID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// solveBlock iterates the CPI ↔ bus-bandwidth fixed point for every
// placement of the current block at once: one lane step advances every
// distinct (class, load) key of every unconverged placement, then each
// placement reduces its threads' offered traffic (in thread order, exactly
// as the scalar loop did) and applies the damped bus-factor update. A
// placement whose update leaves the bus factor unchanged is converged —
// every remaining iteration would reproduce the same state bit-for-bit, so
// its lanes are masked and it stops paying for the rest of the loop.
func (m *Machine) solveBlock(ctx *phaseCtx, p *workload.PhaseProfile) {
	nPl := len(ctx.pend)
	freq := m.Topo.FrequencyHz * m.clockScale()
	lineBytes := 64.0
	storeFrac := 1 - p.LoadFraction
	trafficPerMiss := lineBytes * (1 + p.StoreBandwidthBoost*storeFrac)
	prefetchHide := 1 - 0.6*p.PrefetchFriendly

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
	ctx.lanes.sizeDerived()

	remaining := nPl
	for iter := 0; iter < m.params.FixedPointIters && remaining > 0; iter++ {
		// Fan each placement's bus factor out to its lanes, then advance
		// every live lane in one element-wise step.
		for o := range ctx.pend {
			if ctx.converged[o] {
				continue
			}
			pe := &ctx.pend[o]
			for l := pe.laneOff; l < pe.laneOff+pe.laneN; l++ {
				ctx.lanes.bus[l] = ctx.bus[o]
			}
		}
		advanceLanes(&ctx.lanes, prefetchHide, p.MLP, freq, trafficPerMiss)

		for o := range ctx.pend {
			if ctx.converged[o] {
				continue
			}
			pe := &ctx.pend[o]
			// Offered FSB traffic accumulates in thread order — the same
			// values in the same order as the per-thread scalar loop.
			var traffic float64
			for _, ln := range ctx.thrLane[pe.thrOff : pe.thrOff+pe.n] {
				traffic += ctx.lanes.contrib[ln]
			}
			newFactor := m.fsb.LatencyFactor(traffic)
			updated := 0.5*ctx.bus[o] + 0.5*newFactor
			ctx.traffic[o] = traffic
			if updated == ctx.bus[o] {
				// Exact fixed point: every further iteration recomputes
				// this identical state. Retire the placement and mask its
				// lanes out of subsequent steps.
				ctx.converged[o] = true
				remaining--
				for l := pe.laneOff; l < pe.laneOff+pe.laneN; l++ {
					ctx.lanes.done[l] = true
				}
			}
			ctx.bus[o] = updated
		}
	}
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

// responseFactorCtx is responseFactor with the phase-fingerprint prefix of
// the FNV fold cached in the context: every placement of a sweep shares the
// hash state after mixing Fingerprint and the separator, so only the
// placement name is folded per result. The byte sequence folded into the
// hash is identical either way, so the factor is bit-identical to
// responseFactor (test-enforced).
func (m *Machine) responseFactorCtx(ctx *phaseCtx, p *workload.PhaseProfile, pl topology.Placement) float64 {
	if m.params.ResponseSigma <= 0 || p.Fingerprint == "" || pl.Threads() <= 1 {
		return 1
	}
	if ctx.respFP != p.Fingerprint {
		h := uint64(1469598103934665603)
		for i := 0; i < len(p.Fingerprint); i++ {
			h ^= uint64(p.Fingerprint[i])
			h *= 1099511628211
		}
		h ^= uint64('|')
		h *= 1099511628211
		ctx.respFP, ctx.respSeed = p.Fingerprint, h
	}
	h := ctx.respSeed
	for i := 0; i < len(pl.Name); i++ {
		h ^= uint64(pl.Name[i])
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
	z *= math.Sqrt(3)
	return math.Exp(m.params.ResponseSigma * z)
}

// finishPlacement turns one solved placement into a Result: cycle
// accounting, PMU event synthesis and power-model activity, identical to
// the scalar tail of the phase model. o is the placement's index within the
// solve block (its slot in ctx.bus/ctx.traffic); perThreadIPC is the
// caller-provided backing for the Result's per-thread IPC (length n — block
// flushes carve it out of one slab allocation instead of one make per
// result).
func (m *Machine) finishPlacement(ctx *phaseCtx, pe *pendingPlacement, o int, p *workload.PhaseProfile, idio float64, perThreadIPC []float64) Result {
	n := pe.n
	busFactor := ctx.bus[o]
	busUtil := m.fsb.Utilization(ctx.traffic[o])
	freq := m.Topo.FrequencyHz * m.clockScale()

	// --- Work division ------------------------------------------------
	parInstr := p.Instructions * p.ParallelFraction
	serInstr := p.Instructions - parInstr
	imb := imbalanceFactor(p.ChunkGranularity, n)
	// Heaviest thread's share of the parallel instructions.
	heavyShare := imb / float64(n)

	mpiL1 := p.MemRefsPerInstr * p.L1MissRate

	// --- Cycle accounting ----------------------------------------------
	// Serial section runs on one thread — the placement's first core, with
	// a single-thread L2 share and that core's class.
	cls0 := m.classOf(pe.pl.Cores[0])
	serMiss := ctx.missFor(m, p, 1)
	serCPI := m.threadCPI(p, mpiL1, serMiss, busFactor, 1, cls0) / cls0.FreqMult
	serCycles := serInstr * serCPI

	// Critical-section serialisation and hidden idiosyncrasy both grow
	// with thread count; neither is visible in the cache/bus counters.
	critFactor := 1 + p.CriticalFraction*float64(n-1)
	idioFactor := 1 + idio*float64(n-1)/3
	if idioFactor < 0.5 {
		idioFactor = 0.5
	}

	// The slowest thread gates the end-of-phase barrier: the heaviest
	// chunk share executed at the worst per-thread CPI.
	thrLane := ctx.thrLane[pe.thrOff : pe.thrOff+n]
	maxCPI := 0.0
	for t := 0; t < n; t++ {
		c := ctx.lanes.cpi[thrLane[t]]
		if c > maxCPI {
			maxCPI = c
		}
		if c > 0 {
			perThreadIPC[t] = 1 / (c * critFactor * idioFactor)
		}
	}
	parCycles := parInstr * heavyShare * maxCPI * critFactor * idioFactor

	syncCycles := 0.0
	if n > 1 {
		syncCycles = p.SyncCycles * (1 + log2N(n)) * idioFactor
	}

	// Bandwidth wall: the phase cannot finish faster than its total bus
	// traffic takes to transfer. In the saturated regime execution time is
	// proportional to bytes moved — the mechanism behind IS and MG losing
	// performance when destructive L2 sharing multiplies their misses.
	//
	// Note: near saturation the queueing factor above and this wall
	// overlap slightly; lowering the clock reduces offered load and hence
	// queueing, which can shave up to ~10% off a saturated phase's
	// latency-inflated compute path. The wall bounds the effect; it is a
	// known, benign artifact of the analytic composition.
	lineBytes := 64.0
	storeFrac := 1 - p.LoadFraction
	trafficPerMiss := lineBytes * (1 + p.StoreBandwidthBoost*storeFrac)
	missL2 := ctx.thrMiss[pe.thrOff : pe.thrOff+n]
	var avgMissL2 float64
	for _, mr := range missL2 {
		avgMissL2 += mr
	}
	avgMissL2 /= float64(n)
	totalBytes := p.Instructions * mpiL1 * avgMissL2 * trafficPerMiss
	bwCycles := m.fsb.MinTransferTime(totalBytes) * freq

	wallCycles := serCycles + parCycles + syncCycles
	if bwCycles > wallCycles {
		wallCycles = bwCycles
	}
	wallCycles *= m.responseFactorCtx(ctx, p, pe.pl)
	timeSec := wallCycles / freq

	// --- Event counts ---------------------------------------------------
	counts := m.eventCounts(p, missL2, wallCycles, busUtil, cls0)

	// --- Activity for the power model ------------------------------------
	var sumIPC float64
	for _, v := range perThreadIPC {
		sumIPC += v
	}
	avgCoreIPC := sumIPC / float64(n)
	stall := m.stallFraction(p, mpiL1, missL2[0], busFactor, cls0)
	act := Activity{
		TimeSec:          timeSec,
		ActiveCores:      n,
		TotalCores:       m.Topo.NumCores,
		AvgCoreIPC:       avgCoreIPC,
		PeakIPC:          m.params.PeakIssueIPC,
		AvgCoreUtil:      1 - stall,
		BusUtilization:   busUtil,
		BusBytes:         counts[pmu.BusTransMem] * lineBytes,
		L2AccessesPerSec: counts[pmu.L2References] / math.Max(timeSec, 1e-12),
		FreqScale:        m.clockScale(),
	}

	return Result{
		TimeSec:      timeSec,
		WallCycles:   wallCycles,
		AggIPC:       p.Instructions / wallCycles,
		PerThreadIPC: perThreadIPC,
		Counts:       counts,
		Activity:     act,
	}
}

// RunPhaseSweep evaluates phase p with idiosyncrasy idio under every
// placement of placements, writing the result for placements[i] into
// dst[i]. It is semantically identical — bit for bit, including the order
// measurement-noise draws are consumed in — to calling RunPhase once per
// placement in slice order, but hoists the per-phase invariant part of the
// solve (the L2 miss-rate table, the scratch buffers, the memo key prefix)
// out of the placement loop and solves memo-missing placements as
// multi-lane blocks (see solveBlock). Memo hits fill dst without
// allocating; see WithMemo for the PerThreadIPC read-only contract.
//
// It panics when dst is shorter than placements, mirroring RunPhase's
// contract violations.
func (m *Machine) RunPhaseSweep(p *workload.PhaseProfile, idio float64, placements []topology.Placement, dst []Result) {
	if len(dst) < len(placements) {
		panic("machine: RunPhaseSweep dst shorter than placements")
	}
	ctx := ctxPool.Get().(*phaseCtx)
	ctx.resetPhase()
	ctx.resetBlock()
	ctx.bindMachine(m)
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
		// One PerThreadIPC slab for the whole block; each result gets a
		// capacity-capped window so no result can grow into its neighbour.
		slab := make([]float64, len(ctx.thrLane))
		for i := range ctx.pend {
			pe := &ctx.pend[i]
			ipc := slab[pe.thrOff : pe.thrOff+pe.n : pe.thrOff+pe.n]
			res := m.finishPlacement(ctx, pe, i, p, idio, ipc)
			if useMemo {
				res = *m.memo.Put(pe.hash, pe.key, res)
			}
			dst[pe.idx] = res
		}
		ctx.resetBlock()
	}
	for i := range placements {
		pl := placements[i]
		coresHash := hashCores(pl.Cores)
		if useMemo {
			hash := memoHash(seed, idio, &pl, coresHash)
			key := m.keyFor(p, idio, &pl, coresHash)
			if res := m.memo.Get(hash, &key); res != nil {
				dst[i] = *res
				continue
			}
			m.prepPlacement(ctx, p, pl, i, coresHash, hash, key)
		} else {
			m.prepPlacement(ctx, p, pl, i, coresHash, 0, memoKey{})
		}
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
	ctxPool.Put(ctx)
}

// RunPhaseSweepDeterministic fills dst like RunPhaseSweep but never draws
// or applies measurement noise, leaving the machine's noise stream
// untouched: dst receives exactly what a noiseless copy of the machine
// would produce. Strategy replay uses it to precompute a phase's response
// across every candidate placement once, then applies per-execution noise
// in iteration order with ApplyNoise — the combination is bit-identical to
// calling RunPhase per iteration, noise stream included.
func (m *Machine) RunPhaseSweepDeterministic(p *workload.PhaseProfile, idio float64, placements []topology.Placement, dst []Result) {
	det := *m
	det.noiseSrc = nil
	det.RunPhaseSweep(p, idio, placements, dst)
}

// ApplyNoise perturbs res in place, consuming exactly the measurement-noise
// draws RunPhase would have consumed for one execution. It is a no-op on
// machines without a noise source. res.PerThreadIPC is never touched (on
// memoised machines it aliases the cache's canonical slice).
func (m *Machine) ApplyNoise(res *Result) {
	if m.noiseSrc != nil {
		m.perturb(res)
	}
}
