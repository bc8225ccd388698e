// Multi-lane fixed-point kernel. A *lane* is one distinct (core class, L2
// group load) key of a placement together with its multiplicity — how many of
// the placement's threads carry that key. Every thread of a lane has the same
// L2 miss rate, the same CPI and the same offered bus traffic, so the phase
// model is defined over lanes: the solve advances one CPI per lane, and every
// placement-level reduction (offered traffic, average miss rate, summed IPC,
// worst CPI) runs over lanes weighted by multiplicity, lanes in the order
// their first thread appears in the placement. Lanes advance as
// struct-of-arrays blocks, so one iteration updates every lane of every
// placement in the current sweep block.
//
// Per lane and per fixed-point iteration the step computes
//
//	memLat  = ((MemLatencyCycles·clock)·FreqMult · busFactor) · prefetchHide
//	memTerm = ((mpiL1·missL2) · memLat) / MLP
//	cpi     = max(base + memTerm, CPIMult/PeakIssueIPC) / FreqMult
//	contrib = ((mpiL1·missL2) · (freq/cpi)) · trafficPerMiss
//
// with base = ((coreCPI + branch) + tlb) + l2Term — the operand order of
// Machine.threadCPI, which still evaluates the serial section and the stall
// fraction. Each lane holds the iteration-invariant factors of those
// expressions — pfx = (MemLatencyCycles·clock)·FreqMult, q = mpiL1·missL2,
// min = CPIMult/PeakIssueIPC, divf = FreqMult — computed once with exactly
// the operand order above, so a lane's CPI is bit for bit threadCPI(...)/
// FreqMult at the lane's key. The step is element-wise (no cross-lane
// reduction), which is what lets a vector implementation process several
// lanes per instruction without reordering a single float operation; the
// cross-lane reductions live in sweep.go and are plain scalar Go on every
// build. The always-built scalar reference below is the semantics;
// advanceLanes is the dispatch point.
package machine

// laneState is the struct-of-arrays solve state for the lanes of one block
// of placements. All slices share length; done masks lanes whose placement
// already reached its exact fixed point.
type laneState struct {
	// Iteration-invariant per-lane factors (see package comment).
	base []float64 // core + branch + TLB + L2 CPI terms
	pfx  []float64 // memory-latency prefix: (MemLatencyCycles·clock)·FreqMult
	q    []float64 // L2 misses per instruction: mpiL1·missL2
	min  []float64 // issue-width clamp: CPIMult/PeakIssueIPC
	divf []float64 // nominal-clock referencing divisor: FreqMult

	// Per-lane reduction weights (never read by the lane step).
	cnt  []float64 // multiplicity: placement threads on this lane
	miss []float64 // the lane's L2 miss rate

	// Per-iteration inputs and outputs.
	bus     []float64 // owning placement's current bus latency factor
	cpi     []float64 // nominal-clock-referenced CPI after the last step
	contrib []float64 // FSB traffic offered by one thread on this lane
	done    []bool    // lane retired: owning placement converged exactly
}

// len returns the number of lanes appended to the block.
func (ls *laneState) len() int { return len(ls.base) }

// reset truncates the block's lanes, keeping capacity.
func (ls *laneState) reset() {
	ls.base = ls.base[:0]
	ls.pfx = ls.pfx[:0]
	ls.q = ls.q[:0]
	ls.min = ls.min[:0]
	ls.divf = ls.divf[:0]
	ls.cnt = ls.cnt[:0]
	ls.miss = ls.miss[:0]
}

// append adds one lane: its invariant factors and its reduction weights.
func (ls *laneState) append(base, pfx, q, min, divf, cnt, miss float64) {
	ls.base = append(ls.base, base)
	ls.pfx = append(ls.pfx, pfx)
	ls.q = append(ls.q, q)
	ls.min = append(ls.min, min)
	ls.divf = append(ls.divf, divf)
	ls.cnt = append(ls.cnt, cnt)
	ls.miss = append(ls.miss, miss)
}

// sizeDerived sizes the per-iteration arrays to match the appended lanes,
// clears the retirement mask and starts every lane's bus factor at 1 — the
// uncontended bus every placement's fixed point starts from.
func (ls *laneState) sizeDerived() {
	n := ls.len()
	if cap(ls.bus) < n {
		ls.bus = make([]float64, n)
		ls.cpi = make([]float64, n)
		ls.contrib = make([]float64, n)
		ls.done = make([]bool, n)
	}
	ls.bus = ls.bus[:n]
	ls.cpi = ls.cpi[:n]
	ls.contrib = ls.contrib[:n]
	ls.done = ls.done[:n]
	for i := range ls.done {
		ls.done[i] = false
		ls.bus[i] = 1
	}
}

// advanceLanes performs one damped-fixed-point iteration step for every
// live lane of the block: threadCPI at the lane's current bus factor plus
// the lane's per-thread traffic contribution. It is the kernel dispatch
// point — a SIMD build may replace it with a vector implementation, which
// is bit-identical by construction because every lane's operation sequence
// is element-wise (see the package comment) and may also recompute retired
// lanes (their inputs no longer change, so recomputation is exact).
var advanceLanes = advanceLanesScalar

// advanceLanesScalar is the always-built reference implementation.
func advanceLanesScalar(ls *laneState, prefetchHide, mlp, freq, trafficPerMiss float64) {
	for l := range ls.base {
		if ls.done[l] {
			continue
		}
		memLat := ls.pfx[l] * ls.bus[l] * prefetchHide
		cpi := ls.base[l] + ls.q[l]*memLat/mlp
		if cpi < ls.min[l] {
			cpi = ls.min[l]
		}
		cpi = cpi / ls.divf[l]
		ls.cpi[l] = cpi
		ls.contrib[l] = ls.q[l] * (freq / cpi) * trafficPerMiss
	}
}
