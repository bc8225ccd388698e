// Package fleet lifts the paper's single-node adaptation story to the
// cluster: a fleet of heterogeneous machines (each described by the same
// topology.ParseDesc grammar the rest of the system uses), a stream of
// arriving jobs carrying per-phase PMU signatures drawn from the NPB
// suite, and an interference-aware scheduler that scores candidate
// (machine, placement) slots under a QoS degradation bound — the layer the
// paws scheduler builds from temporal utilization templates, reproduced
// here on top of our analytic machine model.
//
// The scheduler's decision policy is deliberately simple and exactly
// specified, because two implementations must reproduce it bit for bit:
//
//   - every machine carries a residual template (per-L2-group free cores,
//     external cache pressure, resident memory sensitivity, plus a
//     machine-wide bus-demand sum) computed from its resident set in
//     job-ID order;
//   - a machine's congestion key K is a pure function of its residual
//     state, independent of the job;
//   - an arriving job is placed on the feasible machine with the smallest
//     (K, machine index), where feasibility means the job's predicted
//     slowdown — relative to its solo-best time across the fleet's machine
//     classes — and the marginal degradation imposed on every resident
//     both stay within the QoS bound;
//   - within the chosen machine, the placement is the best-predicted
//     (thread count, per-group distribution) candidate, evaluated with the
//     machine model's batched sweep on canonical placements.
//
// Two scorers implement the policy. The naive reference re-scores every
// machine on every arrival — O(M) candidate evaluations. The incremental
// scorer keeps each fact of a decision in one of three tables of its run
// (sched.go), held once and never invalidated:
//
//   - the solo table: the solo metrics per (machine class, signature,
//     shape), one machine-model solve each (keys.go);
//   - the resident-state table: a state is a machine's class plus the
//     ordered list of its residents' (job class, real distribution), where
//     a job class is a (signature, thread budget) pair numbered once per
//     stream. Every aggregate, the canonical template, the congestion key K
//     and the residents' interference factors are pure functions of the
//     state, so machines in one state share one read-only record. An event
//     builds the state's key from the resident list and reads the table;
//     only a state's first appearance runs the recompute;
//   - the verdict rows: admission of a job class to a state — the shape
//     decision on the state's canonical template, then the resident-impact
//     check — computed once per (job class, state). A job class also holds
//     its fleet-wide solo best.
//
// The probe index (probe.go) files machines in one bitset bucket per live
// state, sorted by (K, state id); an event moves only the touched machine,
// one bit cleared and one set. An arrival steps through the groups of
// buckets of equal K in ascending K, asks for one verdict per bucket, and
// takes the lowest member of the group's feasible buckets: it costs the
// buckets it passes, not the machines. A run is one goroutine and shares
// nothing, so the package takes no lock. The binpack baseline is the
// exception to the state table: its states almost never repeat, so each
// machine keeps a record of its own, recomputed in place. The naive and
// incremental paths evaluate candidates through the same pure functions
// over the same template values, so their schedules are byte-identical —
// the same scalar/SIMD pattern the kernel engine uses; the tests plug the
// naive reference in through an unexported Options seam.
//
// Every product that feeds an add or subtract is wrapped in an explicit
// float64(...) conversion, which forces its rounding: Go may fuse a*b + c
// into one FMA where the target has one (go1.24 does on arm64, not on
// amd64), and an arm64 schedule would then drift from the amd64 one in the
// last bits. `GOARCH=arm64 go build
// -gcflags=github.com/greenhpc/actor/internal/fleet=-S ./internal/fleet`
// lists no fused instruction (FMADDD, FMSUBD, FNMADDD, FNMSUBD).
package fleet

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/topology"
)

// maxGroups bounds the number of L2 groups per machine class so per-group
// thread distributions fit fixed-size vectors (no allocation on the
// scoring hot path).
const maxGroups = 16

// distVec is a per-group thread-count vector, indexed either canonically
// (template order) or by real group index, depending on context.
type distVec [maxGroups]int8

// Model constants of the interference composition. The solo machine-model
// solve already covers self-interference (a job's own threads sharing an
// L2 group); these coefficients scale the cross-job terms: external cache
// pressure in a shared group and fleet bus overcommit. They are part of
// the deterministic policy, not tunables read from the environment.
const (
	// kCache scales the slowdown a memory-sensitive thread suffers per
	// unit of external working-set pressure (bytes of co-resident
	// footprint per byte of L2 capacity) in its group.
	kCache = 0.5
	// cacheCap bounds the external-pressure ratio fed to the cache term:
	// beyond ~1.5 cache capacities of external footprint the group is
	// fully thrashed and more pressure changes nothing.
	cacheCap = 1.5
	// kBus scales the slowdown per unit of bus overcommit (aggregate bus
	// demand beyond the machine's capacity, both expressed as fractions
	// of that capacity).
	kBus = 0.9
	// maxFactor caps the composed interference factor; the analytic terms
	// are first-order and should not extrapolate into absurdity.
	maxFactor = 4.0
)

// Power proxy constants for fleet-level energy accounting (the ED² the
// study reports). Machines are never power-gated: the base burns for the
// whole schedule, so packing saves no base power and the scheduler's win
// must come from delay and dynamic power — the same conclusion the paper
// draws for single-node throttling.
const (
	basePowerW  = 60.0 // per-machine floor: PSU, fans, chipset, idle cores
	staticCoreW = 2.0  // extra leakage/clock power per occupied core
	dynCoreW    = 25.0 // switching power of a fully unstalled core
)

// groupKind identifies a class of identical L2 groups within a machine
// class: same core count and same core class. Canonical templates sort
// groups by kind so two machines with the same residual state encode
// identically.
type groupKind struct {
	size     int
	classIdx int
}

// Class is one machine class of the fleet: a parsed topology plus the
// machine model every solo-placement solve runs on.
type Class struct {
	// Desc is the topology descriptor the class was built from.
	Desc string
	// Topo is the parsed topology.
	Topo *topology.Topology
	// Model is the ground-truth machine model. It carries no phase memo:
	// a run's solo table already solves each (class, signature, shape)
	// once.
	Model *machine.Machine

	kinds      []groupKind // distinct group kinds, canonical order
	groupKind  []int       // real group index → kind index
	kindGroups [][]int     // kind index → real group indices, topo order
	groupSize  []int       // real group index → core count
	l2Bytes    float64
	cores      int
}

// NewClass parses a topology descriptor into a machine class. Params, when
// non-nil, replaces the model's default core parameters (tests use this to
// zero ResponseSigma for exact parity with the single-node oracles).
func NewClass(desc string, params *machine.Params) (*Class, error) {
	topo, err := topology.ParseDesc(desc)
	if err != nil {
		return nil, err
	}
	if len(topo.L2Groups) > maxGroups {
		return nil, fmt.Errorf("fleet: class %q has %d L2 groups, max %d", desc, len(topo.L2Groups), maxGroups)
	}
	m, err := machine.New(topo)
	if err != nil {
		return nil, err
	}
	if params != nil {
		m = m.WithParams(*params)
	}
	c := &Class{
		Desc:    desc,
		Topo:    topo,
		Model:   m,
		l2Bytes: float64(topo.L2BytesPerGroup),
		cores:   topo.NumCores,
	}
	c.groupKind = make([]int, len(topo.L2Groups))
	c.groupSize = make([]int, len(topo.L2Groups))
	for gi, g := range topo.L2Groups {
		c.groupSize[gi] = len(g)
		k := groupKind{size: len(g), classIdx: topo.ClassIndexOf(g[0])}
		ki := -1
		for i, have := range c.kinds {
			if have == k {
				ki = i
				break
			}
		}
		if ki < 0 {
			ki = len(c.kinds)
			c.kinds = append(c.kinds, k)
			c.kindGroups = append(c.kindGroups, nil)
		}
		c.groupKind[gi] = ki
		c.kindGroups[ki] = append(c.kindGroups[ki], gi)
	}
	return c, nil
}

// Fleet is a static fleet description: classes plus the class index of
// every machine. Scheduling runs build their runtime state from it, so one
// Fleet serves many Schedule calls (and both scorers of a comparison).
type Fleet struct {
	Classes []*Class
	// MachineClass maps machine index → class index.
	MachineClass []int
}

// NewFleet builds a fleet of counts[i] machines of each class, numbered
// class-major (all machines of class 0 first). Machine indices are the
// canonical tie-break of the placement policy, so the ordering is part of
// the schedule's identity.
func NewFleet(classes []*Class, counts []int) (*Fleet, error) {
	if len(classes) == 0 || len(classes) != len(counts) {
		return nil, fmt.Errorf("fleet: %d classes for %d counts", len(classes), len(counts))
	}
	f := &Fleet{Classes: classes}
	for ci, n := range counts {
		if n <= 0 {
			return nil, fmt.Errorf("fleet: class %q count %d", classes[ci].Desc, n)
		}
		for i := 0; i < n; i++ {
			f.MachineClass = append(f.MachineClass, ci)
		}
	}
	return f, nil
}

// maxSpecMachines bounds the fleet a spec may describe: a Fleet holds a
// class index per machine, and a run holds a machState (a few words) per
// machine — plus, in a binpack run, a resState (≈1 KiB) per machine.
const maxSpecMachines = 1 << 20

// ParseFleet builds a fleet from a compact spec: comma-separated
// "count*descriptor" terms, where descriptor follows topology.ParseDesc and
// the counts add up to at most maxSpecMachines.
//
//	"64*2x2"                          — 64 quad-cores
//	"600*4x2,400*2x4+2x2:little"      — a 1000-machine heterogeneous fleet
func ParseFleet(spec string, params *machine.Params) (*Fleet, error) {
	var classes []*Class
	var counts []int
	var machines uint64
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		star := strings.Index(term, "*")
		if star <= 0 {
			return nil, fmt.Errorf("fleet: spec term %q is not count*descriptor", term)
		}
		// The count is decimal digits and nothing else: ParseUint refuses a
		// sign, inner whitespace, an empty count and trailing garbage alike.
		n, err := strconv.ParseUint(term[:star], 10, 31)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("fleet: bad machine count in %q", term)
		}
		if machines += n; machines > maxSpecMachines {
			return nil, fmt.Errorf("fleet: spec %q describes more than the limit of %d machines", spec, maxSpecMachines)
		}
		c, err := NewClass(term[star+1:], params)
		if err != nil {
			return nil, err
		}
		classes = append(classes, c)
		counts = append(counts, int(n))
	}
	return NewFleet(classes, counts)
}

// Machines returns the fleet's machine count.
func (f *Fleet) Machines() int { return len(f.MachineClass) }

// TotalCores returns the fleet's aggregate core count.
func (f *Fleet) TotalCores() int {
	n := 0
	for _, ci := range f.MachineClass {
		n += f.Classes[ci].cores
	}
	return n
}

// machState is the runtime state of one fleet machine: its class, its
// resident list in job-ID order, and the record of its resident state —
// everything derived from the two. The incremental scorer interns that
// record (run.intern in sched.go), so machines in one resident state
// share it read-only and a placement or completion swaps the pointer; a
// binpack run gives every machine a record of its own and recomputes it in
// place.
type machState struct {
	class     int
	residents []*placedJob // sorted by job ID
	*resState
}

// resState is a resident state's aggregates: a pure function of the
// machine's class and the ordered list of its residents' (job class, real
// distribution), accumulated in job-ID order, never incrementally, so two
// machines that reach one resident list through any event interleaving hold
// bit-identical floats.
type resState struct {
	id int32 // index in the run's state table; unused in a binpack run

	// Per-real-group aggregates.
	free    [maxGroups]int16   // free cores
	occ     [maxGroups]int16   // resident threads
	ws      [maxGroups]float64 // external working-set pressure (bytes)
	sensMax [maxGroups]float64 // max resident memory sensitivity

	busSum     float64 // aggregate bus demand (fraction of capacity)
	maxSens    float64 // machine-wide max resident sensitivity
	freeTotal  int
	congestion float64 // the policy's machine-ordering key K
	power      float64 // instantaneous power draw (W)

	// factors holds each resident's interference factor, by position in
	// the resident list (residentFactor).
	factors []float64

	// views holds the canonical template — the class's groups in
	// canonGroups order — so a verdict reads it instead of re-sorting.
	views [maxGroups]groupView
}

// canon returns the canonical template of st on a class-c machine.
func (st *resState) canon(c *Class) []groupView { return st.views[:len(c.groupSize)] }

// wsContribution is the external L2 pressure k threads of a job exert on
// one group: the first thread brings the full per-thread footprint, and
// each additional thread adds only the unshared part.
func wsContribution(wsJ, shareJ float64, k int) float64 {
	if k <= 0 {
		return 0
	}
	return float64(wsJ * (1 + float64(float64(k-1)*(1-shareJ))))
}

// recompute rebuilds every aggregate of st from the resident list of a
// class-c machine. The sums accumulate in job-ID order (the list's
// invariant), never incrementally, so aggregate floats depend only on the
// resident list — not on the order placements and completions happened to
// interleave.
func (st *resState) recompute(c *Class, residents []*placedJob) {
	ng := len(c.groupSize)
	for g := 0; g < ng; g++ {
		st.occ[g], st.ws[g], st.sensMax[g] = 0, 0, 0
	}
	st.busSum, st.maxSens = 0, 0
	st.power = basePowerW
	for _, r := range residents {
		st.busSum += r.busJ
		if r.sensJ > st.maxSens {
			st.maxSens = r.sensJ
		}
		st.power += float64(float64(r.threads) * (staticCoreW + float64(dynCoreW*(1-r.sensJ))))
		for g := 0; g < ng; g++ {
			if k := int(r.dist[g]); k > 0 {
				st.occ[g] += int16(k)
				st.ws[g] += wsContribution(r.wsJ, r.shareJ, k)
				if r.sensJ > st.sensMax[g] {
					st.sensMax[g] = r.sensJ
				}
			}
		}
	}
	st.freeTotal = 0
	var press float64
	for g := 0; g < ng; g++ {
		st.free[g] = int16(c.groupSize[g]) - st.occ[g]
		st.freeTotal += int(st.free[g])
		press += st.ws[g] / c.l2Bytes
	}
	used := 1 - float64(st.freeTotal)/float64(c.cores)
	// K orders machines least-congested-first: bus demand dominates, then
	// mean cache pressure, then plain occupancy. Any monotone combination
	// works — the policy only needs K to be a pure function of the
	// machine's residual state so both scorers order machines identically.
	// It is not a function of the canonical template: press sums in real
	// group order, which the template forgets.
	st.congestion = st.busSum + 0.5*press/float64(ng) + float64(0.5*used)
	st.factors = st.factors[:0]
	for _, r := range residents {
		st.factors = append(st.factors, residentFactor(c, st, r))
	}
	canonGroups(c, st, st.views[:0])
}

// groupView is one group of a machine's canonical template: the residual
// state the scoring functions consume, plus the real group index so a
// chosen canonical distribution can be mapped back onto the machine.
type groupView struct {
	kind    int
	free    int
	occ     int
	ws      float64
	sensMax float64
	real    int
}

// canonGroups fills dst with st's groups in canonical template order: by
// kind, then most-free first, then lightest pressure, with the real index
// as the final tie-break. Machines whose residual states are equal
// group-for-group produce element-wise identical views (the real index
// never feeds scoring), so they get one shape decision whichever real
// groups hold their residents. The order is total, so the insertion sort over at most
// maxGroups views gives the one answer any sort would.
func canonGroups(c *Class, st *resState, dst []groupView) []groupView {
	ng := len(c.groupSize)
	dst = dst[:0]
	for g := 0; g < ng; g++ {
		v := groupView{
			kind:    c.groupKind[g],
			free:    int(st.free[g]),
			occ:     int(st.occ[g]),
			ws:      st.ws[g],
			sensMax: st.sensMax[g],
			real:    g,
		}
		dst = append(dst, v)
		i := g
		for ; i > 0 && v.before(&dst[i-1]); i-- {
			dst[i] = dst[i-1]
		}
		dst[i] = v
	}
	return dst
}

// before is canonGroups' order: kind ascending, free descending, then ws,
// occ, sensMax ascending and the real index last.
func (a *groupView) before(b *groupView) bool {
	switch {
	case a.kind != b.kind:
		return a.kind < b.kind
	case a.free != b.free:
		return a.free > b.free
	case a.ws != b.ws:
		return a.ws < b.ws
	case a.occ != b.occ:
		return a.occ < b.occ
	case a.sensMax != b.sensMax:
		return a.sensMax < b.sensMax
	}
	return a.real < b.real
}
