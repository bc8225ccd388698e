// Package machine is the platform performance model: it predicts, for a
// workload phase executed under a particular thread placement, the execution
// time, per-core and aggregate IPC, the hardware event counts a PMU would
// observe, and the activity factors the power model consumes.
//
// It substitutes for the paper's physical Intel Xeon QX6600. The model is
// analytic rather than cycle-accurate: per-thread CPI is composed from the
// phase's inherent ILP, branch/TLB penalties, L2-group capacity sharing (via
// internal/cache) and front-side-bus queueing (via internal/bus), iterated
// to a fixed point because memory traffic depends on execution speed and
// vice versa. This reproduces the first-order phenomena the paper analyses:
// destructive L2 interference between tightly coupled threads, FSB
// saturation for bandwidth-bound codes, Amdahl and synchronisation limits,
// and load imbalance at odd thread counts.
package machine

import (
	"fmt"
	"math"

	"github.com/greenhpc/actor/internal/bus"
	"github.com/greenhpc/actor/internal/cache"
	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// Params holds the microarchitectural latencies and penalties of the
// modelled core. Defaults (see DefaultParams) approximate a 65 nm Core-2.
type Params struct {
	// L2LatencyCycles is the L1-miss/L2-hit service latency.
	L2LatencyCycles float64
	// MemLatencyCycles is the unloaded L2-miss-to-memory latency.
	MemLatencyCycles float64
	// BranchMissPenaltyCycles is the pipeline refill cost per mispredict.
	BranchMissPenaltyCycles float64
	// TLBMissPenaltyCycles is the page-walk cost per DTLB miss.
	TLBMissPenaltyCycles float64
	// PeakIssueIPC bounds per-core IPC.
	PeakIssueIPC float64
	// FixedPointIters is the number of damped iterations of the
	// CPI↔bandwidth fixed point.
	FixedPointIters int
	// ResponseSigma scales the deterministic per-(phase, placement)
	// execution-time perturbation derived from the phase Fingerprint. It
	// models application idiosyncrasies (allocation layout, conflict
	// patterns, NUMA effects) that shift each phase's configuration
	// response but are invisible to the performance counters. Part of
	// ground truth: oracles see it, predictors cannot learn it across
	// applications.
	ResponseSigma float64
}

// DefaultParams returns Core-2-class latencies: 14-cycle L2, 220-cycle
// memory, 15-cycle branch restart, 30-cycle page walk, 4-wide issue.
func DefaultParams() Params {
	return Params{
		L2LatencyCycles:         14,
		MemLatencyCycles:        220,
		BranchMissPenaltyCycles: 15,
		TLBMissPenaltyCycles:    30,
		PeakIssueIPC:            4,
		FixedPointIters:         12,
		ResponseSigma:           0.08,
	}
}

// validate reports the first parameter the model cannot evaluate. With no
// fixed-point iteration the solve never computes a lane CPI, so the cycle
// accounting would read stale scratch. A negative or non-finite latency,
// penalty or ResponseSigma, or an issue width that is not finite and
// positive, breaks what every time in the model rests on — non-negative
// cycle terms and a positive CPI — and with it the lower bound Search
// prunes by.
func (p Params) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"L2LatencyCycles", p.L2LatencyCycles},
		{"MemLatencyCycles", p.MemLatencyCycles},
		{"BranchMissPenaltyCycles", p.BranchMissPenaltyCycles},
		{"TLBMissPenaltyCycles", p.TLBMissPenaltyCycles},
		{"ResponseSigma", p.ResponseSigma},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("%s = %g, want finite and non-negative", f.name, f.v)
		}
	}
	if !(p.PeakIssueIPC > 0) || math.IsInf(p.PeakIssueIPC, 1) {
		return fmt.Errorf("PeakIssueIPC = %g, want finite and positive", p.PeakIssueIPC)
	}
	if p.FixedPointIters < 1 {
		return fmt.Errorf("FixedPointIters = %d, want at least 1", p.FixedPointIters)
	}
	return nil
}

// Machine couples a topology with cache/bus models and core parameters.
type Machine struct {
	Topo *topology.Topology

	// params is fixed when the machine is built: WithParams returns a
	// copy, so a memo never serves a response computed under other
	// parameters. Read with Params().
	params Params

	l2  *cache.SharingModel
	fsb *bus.Model

	// coreGroup maps CoreID → index of its L2 group (-1 for cores outside
	// every group), precomputed at construction so the per-thread group
	// loads of a placement resolve in O(threads) instead of the O(cores²)
	// scans topology.GroupOf would cost on the hot path.
	coreGroup []int

	// classes snapshots the topology's core-class table (a single
	// DefaultClass entry on homogeneous machines) and coreClass maps
	// CoreID → class index, so the hot solve never touches the topology's
	// fallback logic. classSig folds the per-core class descriptors into
	// the memo seed: responses computed under one class layout can never
	// serve another.
	classes   []topology.CoreClass
	coreClass []int
	classSig  uint64

	// noiseSrc, when non-nil, perturbs RunPhase results with run-to-run
	// variance (run times at timeSigma, event counts at countSigma).
	noiseSrc *noise.Source

	// freqScale scales the core clock relative to the topology's nominal
	// frequency (1 = nominal). DVFS extension: lowering the clock
	// lengthens compute time but leaves memory time unchanged, so
	// memory-bound phases lose little performance while dynamic power
	// falls roughly cubically. See WithFrequency.
	freqScale float64

	// memo, when non-nil, caches the deterministic part of RunPhase.
	// Shared across WithNoise/WithFrequency copies; see WithMemo.
	memo *phaseMemo
}

// New builds a machine for the topology with default parameters and no
// measurement noise (ground truth — used for oracles).
func New(t *topology.Topology) (*Machine, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	fsb, err := bus.New(t.BusBandwidth)
	if err != nil {
		return nil, err
	}
	cg := make([]int, t.NumCores)
	cc := make([]int, t.NumCores)
	for c := range cg {
		cg[c] = t.GroupOf(topology.CoreID(c))
		cc[c] = t.ClassIndexOf(topology.CoreID(c))
	}
	classes := t.Classes
	if len(classes) == 0 {
		classes = []topology.CoreClass{topology.DefaultClass()}
	}
	return &Machine{
		Topo:      t,
		params:    DefaultParams(),
		l2:        cache.NewSharingModel(float64(t.L2BytesPerGroup)),
		fsb:       fsb,
		coreGroup: cg,
		classes:   classes,
		coreClass: cc,
		classSig:  classSignature(classes, cc),
		freqScale: 1,
	}, nil
}

// classSignature hashes the class layout (per-core class index plus each
// class's multipliers) for the memo seed, with memoSeed's FNV-1a loop and
// start value.
func classSignature(classes []topology.CoreClass, coreClass []int) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, c := range classes {
		mix(math.Float64bits(c.FreqMult))
		mix(math.Float64bits(c.CPIMult))
	}
	for _, ci := range coreClass {
		mix(uint64(ci))
	}
	return h
}

// WithFrequency returns a copy of the machine clocked at scale × nominal
// frequency (0 < scale ≤ 1 for the usual DVFS ladder). Memory and bus
// service times are wall-clock constants, so their cycle costs shrink as
// the clock slows — the standard DVFS trade the related work (Li &
// Martínez [5]) exploits, combined here with concurrency throttling in
// internal/dvfs.
func (m *Machine) WithFrequency(scale float64) *Machine {
	if scale <= 0 {
		panic("machine: non-positive frequency scale")
	}
	cp := *m
	cp.freqScale = scale
	return &cp
}

// Params returns the machine's core parameters.
func (m *Machine) Params() Params { return m.params }

// WithParams returns a copy of the machine with core parameters p. A
// memoised machine's copy gets a fresh memo of its own, so neither machine
// ever serves a response computed under the other's parameters.
//
// It panics, as WithFrequency does on a non-positive scale, on parameters
// the model cannot evaluate (see Params.validate).
func (m *Machine) WithParams(p Params) *Machine {
	if err := p.validate(); err != nil {
		panic("machine: WithParams: " + err.Error())
	}
	cp := *m
	cp.params = p
	if cp.memo != nil {
		cp.memo = &phaseMemo{}
	}
	return &cp
}

// The noisy machine perturbs every measurement at these relative levels:
// run times by timeSigma, each event count by countSigma.
const (
	timeSigma  = 0.03
	countSigma = 0.12
)

// timeNoise and countNoise are the two levels' log-normal constants,
// worked out once.
var (
	timeNoise  = noise.NewMultiplicative(timeSigma)
	countNoise = noise.NewMultiplicative(countSigma)
)

// WithNoise returns a copy of the machine whose RunPhase results carry
// deterministic measurement noise drawn from src: execution time at
// relative sigma timeSigma and each event count at countSigma. The
// parallel evaluation engine forks one source per task from a (seed, task
// key) pair, so every task's noise stream is private and independent of
// execution order.
func (m *Machine) WithNoise(src *noise.Source) *Machine {
	cp := *m
	cp.noiseSrc = src
	return &cp
}

// Result is the outcome of executing one phase under one placement. It holds
// no pointer: a Result is a plain value, and the slices of them that sweeps
// fill are never scanned by the garbage collector.
type Result struct {
	// TimeSec is the wall-clock time of the phase execution.
	TimeSec float64
	// WallCycles is TimeSec expressed in core cycles.
	WallCycles float64
	// AggIPC is total instructions divided by wall cycles — the paper's
	// per-phase "observed IPC" (Fig. 2), which exceeds one core's peak
	// when threads run concurrently.
	AggIPC float64
	// Counts are the aggregate hardware event counts for the execution.
	Counts pmu.Counts
	// Activity summarises what the power model needs.
	Activity Activity
}

// Activity captures the utilisation factors feeding the power model.
type Activity struct {
	// TimeSec is the interval length.
	TimeSec float64
	// ActiveCores is the number of cores running threads.
	ActiveCores int
	// TotalCores is the machine's core count (idle cores consume only
	// base power).
	TotalCores int
	// AvgCoreIPC is the mean per-active-core IPC during the parallel part
	// (drives dynamic power), each core's IPC referenced to the machine's
	// nominal clock: on heterogeneous machines a little core contributes
	// its own-clock IPC times its FreqMult, so classes average on one time
	// base.
	AvgCoreIPC float64
	// PeakIPC is the core's issue-width bound, for normalising AvgCoreIPC.
	PeakIPC float64
	// AvgCoreUtil is the fraction of the interval the active cores were
	// unstalled (1 − stall fraction).
	AvgCoreUtil float64
	// BusUtilization is FSB occupancy in [0,1].
	BusUtilization float64
	// BusBytes is the total bus traffic during the interval.
	BusBytes float64
	// L2AccessesPerSec is the aggregate L2 request rate.
	L2AccessesPerSec float64
	// FreqScale is the clock scale the interval ran at (0 is read as 1 —
	// nominal frequency).
	FreqScale float64
}

// RunPhase executes phase p of a benchmark with idiosyncrasy idio under
// placement pl and returns the modelled result. It panics on invalid
// placements (no cores); profile validity is the caller's responsibility
// (see workload.PhaseProfile.Validate).
//
// The deterministic part of the result is served from the phase memo when
// one is enabled (see WithMemo); measurement noise, when configured, is
// drawn per call and applied after, so noisy results keep their run-to-run
// variance while the expensive fixed-point solve is shared. To evaluate one
// phase across many placements, prefer RunPhaseSweep, which additionally
// hoists the placement-independent part of the solve out of the loop.
func (m *Machine) RunPhase(p *workload.PhaseProfile, idio float64, pl topology.Placement) Result {
	var res Result
	if m.memo != nil && p.Fingerprint != "" {
		m.memo.lookup(m, p, idio, pl, &res)
	} else {
		m.computePhase(p, idio, pl, &res)
	}
	if m.noiseSrc != nil {
		m.perturb(&res)
	}
	return res
}

// groupOf returns the precomputed L2-group index of core c, or -1 for cores
// the topology does not place in any group.
func (m *Machine) groupOf(c topology.CoreID) int {
	if c < 0 || int(c) >= len(m.coreGroup) {
		return -1
	}
	return m.coreGroup[c]
}

// threadCPI composes one thread's cycles-per-instruction — in the cycles of
// the core it runs on — from core, branch, TLB, L2 and memory terms at the
// current bus latency inflation. groupLoad is the number of placement
// threads sharing this thread's L2: co-resident threads contend for the
// L2's ports, inflating its access latency. cls is the core's class:
// CPIMult scales the core-inherent and issue-bound terms, and FreqMult
// scales how many of the core's (slower) cycles a wall-clock-constant
// memory access costs — exactly the DVFS composition, per class. For
// DefaultClass both multipliers are 1 and every operation below is
// bit-identical to the homogeneous model.
func (m *Machine) threadCPI(p *workload.PhaseProfile, mpiL1, missL2, busFactor float64, groupLoad int, cls *topology.CoreClass) float64 {
	coreCPI := cls.CPIMult / p.BaseIPC
	branch := float64(p.BranchRate * p.BranchMissRate * m.params.BranchMissPenaltyCycles)
	tlb := float64(p.MemRefsPerInstr * p.TLBMissRate * m.params.TLBMissPenaltyCycles)

	mlpL2 := math.Max(1, 0.7*p.MLP) // L2 hits overlap slightly less than misses
	l2Lat := m.params.L2LatencyCycles
	if groupLoad > 1 {
		l2Lat *= 1 + float64(0.35*float64(groupLoad-1))
	}
	l2Term := mpiL1 * (1 - missL2) * l2Lat / mlpL2

	prefetchHide := 1 - float64(0.6*p.PrefetchFriendly)
	// Memory service time is a wall-clock constant: its cost in core
	// cycles scales with the clock (DVFS and, per class, FreqMult).
	memLat := m.params.MemLatencyCycles * m.clockScale() * cls.FreqMult * busFactor * prefetchHide
	memTerm := mpiL1 * missL2 * memLat / p.MLP

	cpi := coreCPI + branch + tlb + l2Term + memTerm
	minCPI := cls.CPIMult / m.params.PeakIssueIPC
	if cpi < minCPI {
		cpi = minCPI
	}
	return cpi
}

// classOf returns the class descriptor of core c (class 0 for out-of-range
// cores). The solve path checks no placement: RunPhase returns a time for
// {0, 99}, {-1} or {0, 0} alike. Placements are validated where they enter
// the program — bank configurations are names resolved through the
// topology's enumeration, and Env.Validate calls
// topology.ValidatePlacement.
func (m *Machine) classOf(c topology.CoreID) *topology.CoreClass {
	return &m.classes[m.classIdxOf(c)]
}

// classIdxOf returns the class-table index of core c.
func (m *Machine) classIdxOf(c topology.CoreID) int {
	if c < 0 || int(c) >= len(m.coreClass) {
		return 0
	}
	return m.coreClass[c]
}

// stallFraction estimates the fraction of cycles an active core spends
// stalled on memory — feeds both ResourceStalls and the power model. cls is
// the class of the representative core (the placement's first).
func (m *Machine) stallFraction(p *workload.PhaseProfile, mpiL1, missL2, busFactor float64, cls *topology.CoreClass) float64 {
	cpi := m.threadCPI(p, mpiL1, missL2, busFactor, 1, cls)
	memCPI := cpi - cls.CPIMult/p.BaseIPC
	if memCPI < 0 {
		memCPI = 0
	}
	f := memCPI / cpi
	if f > 0.95 {
		f = 0.95
	}
	return f
}

// eventCounts fills c with the aggregate ground-truth PMU counts for the
// phase. avgMiss is the placement's L2 miss rate averaged over its threads
// (weighted evenly: threads do near-equal work). cls is the class of the
// placement's first core: on heterogeneous machines the synthesised stall
// cycles carry that core's frequency/CPI multipliers, the same convention
// the per-phase Activity uses.
func (m *Machine) eventCounts(c *pmu.Counts, p *workload.PhaseProfile, avgMiss, wallCycles, busUtil float64, cls *topology.CoreClass) {
	instr := p.Instructions
	memRefs := instr * p.MemRefsPerInstr
	l1Miss := memRefs * p.L1MissRate
	l2Miss := l1Miss * avgMiss
	storeFrac := 1 - p.LoadFraction

	stall := m.stallFraction(p, p.MemRefsPerInstr*p.L1MissRate, avgMiss, 1, cls)

	c[pmu.Instructions] = instr
	c[pmu.Cycles] = wallCycles
	c[pmu.L1DReferences] = memRefs
	c[pmu.L1DMisses] = l1Miss
	c[pmu.L2References] = l1Miss
	c[pmu.L2Misses] = l2Miss
	c[pmu.BusTransMem] = l2Miss * (1 + float64(p.StoreBandwidthBoost*storeFrac))
	c[pmu.BusDrdyClocks] = busUtil * wallCycles
	c[pmu.LoadsRetired] = memRefs * p.LoadFraction
	c[pmu.StoresRetired] = memRefs * storeFrac
	c[pmu.BranchesRet] = instr * p.BranchRate
	c[pmu.BranchMisses] = instr * p.BranchRate * p.BranchMissRate
	c[pmu.DTLBMisses] = memRefs * p.TLBMissRate
	c[pmu.ResourceStalls] = stall * wallCycles
}

// perturb applies run-to-run measurement noise to a result in place.
// Events are perturbed in catalogue order so the draws a result consumes
// from the noise stream are deterministic (the old map-backed Counts
// iterated in random order, silently breaking seed reproducibility).
func (m *Machine) perturb(r *Result) {
	tf := timeNoise.Draw(m.noiseSrc)
	r.TimeSec *= tf
	r.WallCycles *= tf
	r.AggIPC /= tf
	r.Activity.TimeSec = r.TimeSec
	for e := pmu.Event(0); int(e) < pmu.NumEvents; e++ {
		if e == pmu.Instructions {
			continue // retirement counts are exact
		}
		if e == pmu.Cycles {
			r.Counts[e] = r.WallCycles
			continue
		}
		r.Counts[e] *= countNoise.Draw(m.noiseSrc)
	}
}

// MigrationPenalty models the cache-warmth cost of switching a phase from
// placement `from` to `to`: threads landing on cores whose L2 group gained
// occupancy must refill their working sets from memory. It returns the
// extra execution time and the extra bus traffic of the refill, charged to
// the first execution after a switch. This is the effect behind the paper's
// observation that throttling saves no power on average: off-chip refill
// traffic offsets idle-core savings.
func (m *Machine) MigrationPenalty(p *workload.PhaseProfile, from, to topology.Placement) (extraSec, extraBusBytes float64) {
	if placementEqual(from, to) {
		return 0, 0
	}
	fromOcc := make(map[int]int)
	for _, c := range from.Cores {
		fromOcc[m.Topo.GroupOf(c)]++
	}
	var refillBytes float64
	for _, c := range to.Cores {
		g := m.Topo.GroupOf(c)
		if fromOcc[g] > 0 {
			fromOcc[g]--
			continue // a warm thread context existed in this group
		}
		ws := math.Min(p.WorkingSetBytes, float64(m.Topo.L2BytesPerGroup))
		// Refill plus displaced-line writebacks and coherence traffic.
		refillBytes += float64(1.8 * ws)
	}
	if refillBytes == 0 {
		return 0, 0
	}
	lines := refillBytes / 64
	cycles := lines * m.params.MemLatencyCycles / math.Max(p.MLP, 1)
	return cycles / m.Topo.FrequencyHz, refillBytes
}

// clockScale returns the effective frequency scale, treating the zero
// value (machines built before WithFrequency existed, or zero structs) as
// nominal.
func (m *Machine) clockScale() float64 {
	if m.freqScale <= 0 {
		return 1
	}
	return m.freqScale
}

func placementEqual(a, b topology.Placement) bool {
	if len(a.Cores) != len(b.Cores) {
		return false
	}
	for i := range a.Cores {
		if a.Cores[i] != b.Cores[i] {
			return false
		}
	}
	return true
}

// imbalanceFactor returns the ratio heaviest-thread-work / even-share for a
// loop of `chunks` schedulable chunks on n threads (≥ 1; equals 1 for
// perfectly divisible work or chunks ≤ 0).
func imbalanceFactor(chunks, n int) float64 {
	if chunks <= 0 || n <= 1 {
		return 1
	}
	if chunks < n {
		// Fewer chunks than threads: some threads idle entirely.
		return float64(n) / float64(chunks)
	}
	heavy := (chunks + n - 1) / n
	return float64(heavy) * float64(n) / float64(chunks)
}

// String identifies the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("machine{%s}", m.Topo.Name)
}
