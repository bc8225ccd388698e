package fleet

import (
	"fmt"
	"math"
	"sort"
)

// Scorer names select the placement engine. Incremental runs the policy —
// first feasible machine in (congestion key, index) order; binpack is the
// interference-blind baseline the study compares against.
const (
	ScorerIncremental = "incremental"
	ScorerBinpack     = "binpack"
)

// Options configures a scheduling run.
type Options struct {
	// QoS is the degradation bound: a placement is admissible only if the
	// job's predicted slowdown over its fleet-wide solo best — and every
	// resident's — stays within 1+QoS. Zero means the 0.25 default.
	QoS float64
	// Scorer picks the placement engine; empty means incremental.
	Scorer string

	// selectRef, when set, replaces the incremental walk and its
	// single-machine queue retry with a reference selection: the tests'
	// O(M) argmin, which must schedule byte-identically.
	selectRef func(r *run, j *Job) (int, candidate, bool)
}

func (o *Options) resolve() (Options, error) {
	r := *o
	if r.QoS == 0 {
		r.QoS = 0.25
	}
	if r.QoS < 0 {
		return r, fmt.Errorf("fleet: negative QoS bound %g", r.QoS)
	}
	switch r.Scorer {
	case "":
		r.Scorer = ScorerIncremental
	case ScorerIncremental, ScorerBinpack:
	default:
		return r, fmt.Errorf("fleet: unknown scorer %q (have incremental, binpack)", r.Scorer)
	}
	return r, nil
}

// Placed is one row of the schedule: where and how a job ran.
type Placed struct {
	JobID    int
	Machine  int
	Threads  int
	Dist     distVec // threads per real L2 group of the machine
	Start    float64 // placement time (≥ arrival when queued)
	Finish   float64
	SoloSec  float64 // fleet-wide solo-best runtime (size × best unit)
	Slowdown float64 // (Finish − Start) / SoloSec
}

// Result is the outcome of one scheduling run.
type Result struct {
	Scorer string
	QoS    float64
	Placed []Placed // indexed by job ID

	Makespan     float64
	EnergyJ      float64
	ED2          float64 // EnergyJ × Makespan²
	MeanSlowdown float64 // mean running-time stretch over solo best
	MaxSlowdown  float64
	MeanWait     float64 // mean queue delay (Start − Arrival)
	CoreUtil     float64 // busy core-seconds / (fleet cores × makespan)
	Violations   int     // jobs whose stretch exceeded 1+QoS
	// ScoredMachines counts machines scored — the work the perf story is
	// about: naive pays jobs×machines, incremental a few per arrival.
	ScoredMachines int64
	// Templates and DecisionEntries are the sizes the template and decision
	// tables ended the run at: how few distinct residual states the fleet
	// passed through, and how many decisions were ever computed for them.
	Templates       int
	DecisionEntries int
}

// Digest is an FNV-1a fingerprint of the schedule rows in job-ID order
// (scorer name and work counters excluded), the equality witness of the
// incremental-vs-naive and GOMAXPROCS determinism properties.
func (r *Result) Digest() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= 1099511628211
		}
	}
	for i := range r.Placed {
		p := &r.Placed[i]
		mix(uint64(p.JobID))
		mix(uint64(p.Machine))
		mix(uint64(p.Threads))
		var d uint64
		for g := 0; g < maxGroups; g++ {
			d = d<<4 | uint64(p.Dist[g])
		}
		mix(d)
		mix(math.Float64bits(p.Start))
		mix(math.Float64bits(p.Finish))
	}
	return h
}

// placedJob is the runtime record of a job resident on a machine.
type placedJob struct {
	id      int
	machine int
	threads int
	dist    distVec // per real group

	wsJ, shareJ float64
	busJ, sensJ float64
	unitSec     float64 // solo seconds per iteration under the placement
	soloBest    float64 // fleet-wide best unit seconds

	remWork float64 // remaining work in interference-free seconds
	factor  float64 // current interference stretch
	lastT   float64 // last time remWork was reconciled
	start   float64
	arrival float64
	seq     int // valid completion-event sequence number
}

// completion-event min-heap ordered by (time, job ID); stale entries are
// skipped via the per-job sequence number.
type compEvent struct {
	t   float64
	id  int
	seq int
}

type compHeap []compEvent

func (h compHeap) before(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].id < h[j].id
}

func (h *compHeap) push(e compEvent) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *compHeap) pop() compEvent {
	top := (*h)[0]
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.before(l, m) {
			m = l
		}
		if r < n && h.before(r, m) {
			m = r
		}
		if m == i {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return top
}

// run is the mutable state of one scheduling pass.
type run struct {
	f      *Fleet
	s      *scorer
	opt    Options
	states []machState
	treap  *machTreap // incremental scorer only
	byID   map[int]*placedJob

	heap    compHeap
	pending []int // queued job indices, FIFO

	totalPower float64
	totalOcc   int
	lastT      float64
	energy     float64
	busySec    float64

	// arrival numbers selectIncremental's calls and decided[id] holds the
	// decision on template id of the call stamped in it, so machines
	// sharing a template pay one decision-table probe per arrival.
	arrival int
	decided []arrivalDecision

	scored int64
	res    *Result
}

type arrivalDecision struct {
	arrival int
	dec     *candidate
}

// Schedule places the job stream on the fleet and simulates it to
// completion. Jobs and fleet are read-only; one Fleet serves concurrent
// Schedule calls.
func Schedule(f *Fleet, jobs []Job, opt Options) (*Result, error) {
	return newScorer(f).schedule(jobs, opt)
}

// schedule is Schedule on a caller-held scorer, so a test can read the
// memo tables the run filled.
func (s *scorer) schedule(jobs []Job, opt Options) (*Result, error) {
	f := s.f
	ropt, err := opt.resolve()
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("fleet: empty job stream")
	}
	r := s.newRun(len(jobs), ropt)

	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := &jobs[order[a]], &jobs[order[b]]
		if ja.Arrival != jb.Arrival {
			return ja.Arrival < jb.Arrival
		}
		return ja.ID < jb.ID
	})

	ai := 0
	for ai < len(order) || len(r.byID) > 0 {
		// Next event: completions win ties against arrivals so freed
		// capacity is visible to a simultaneously arriving job.
		ct, hasComp := r.peek()
		if hasComp && (ai >= len(order) || ct <= jobs[order[ai]].Arrival) {
			e := r.heap.pop()
			r.accrue(e.t)
			mi := r.byID[e.id].machine
			r.complete(jobs, e.id, e.t)
			r.drainAfterCompletion(jobs, mi, e.t)
			continue
		}
		if ai >= len(order) {
			return nil, fmt.Errorf("fleet: %d jobs stuck in queue with an idle fleet", len(r.pending))
		}
		j := &jobs[order[ai]]
		ai++
		r.accrue(j.Arrival)
		if mi, cand, ok := r.selectMachine(j); ok {
			r.place(j, mi, cand, j.Arrival)
		} else {
			r.pending = append(r.pending, j.ID)
		}
	}

	if len(r.pending) > 0 {
		return nil, fmt.Errorf("fleet: %d jobs never became placeable", len(r.pending))
	}
	res := r.res
	res.Makespan = r.lastT
	res.EnergyJ = r.energy
	res.ED2 = res.EnergyJ * res.Makespan * res.Makespan
	if res.Makespan > 0 {
		res.CoreUtil = r.busySec / (float64(f.TotalCores()) * res.Makespan)
	}
	var sumSlow, sumWait float64
	for i := range res.Placed {
		p := &res.Placed[i]
		sumSlow += p.Slowdown
		sumWait += p.Start - jobs[i].Arrival
		if p.Slowdown > res.MaxSlowdown {
			res.MaxSlowdown = p.Slowdown
		}
		if p.Slowdown > (1+ropt.QoS)*(1+1e-9) {
			res.Violations++
		}
	}
	res.MeanSlowdown = sumSlow / float64(len(jobs))
	res.MeanWait = sumWait / float64(len(jobs))
	res.ScoredMachines = r.scored
	res.Templates = int(s.templates.Load())
	_, _, decisions := s.decision.Stats()
	res.DecisionEntries = int(decisions)
	return res, nil
}

// newRun builds the idle-fleet state of one scheduling pass: every machine
// recomputed and interned, and the congestion treap for the incremental
// scorer.
func (s *scorer) newRun(jobs int, opt Options) *run {
	f := s.f
	r := &run{
		f:      f,
		s:      s,
		opt:    opt,
		states: make([]machState, f.Machines()),
		byID:   make(map[int]*placedJob, 64),
		res:    &Result{Scorer: opt.Scorer, QoS: opt.QoS, Placed: make([]Placed, jobs)},
	}
	for i := range r.states {
		m := &r.states[i]
		m.class = f.MachineClass[i]
		s.retemplate(m)
		r.totalPower += m.power
	}
	if opt.Scorer == ScorerIncremental {
		r.treap = newMachTreap(f.Machines())
		for i := range r.states {
			r.treap.Insert(int32(i), r.states[i].congestion)
		}
	}
	return r
}

// peek returns the next live completion event time.
func (r *run) peek() (float64, bool) {
	for len(r.heap) > 0 {
		e := r.heap[0]
		pj := r.byID[e.id]
		if pj == nil || pj.seq != e.seq {
			r.heap.pop()
			continue
		}
		return e.t, true
	}
	return 0, false
}

// accrue advances energy and busy-core accounting to time t.
func (r *run) accrue(t float64) {
	dt := t - r.lastT
	if dt > 0 {
		r.energy += r.totalPower * dt
		r.busySec += float64(r.totalOcc) * dt
	}
	if t > r.lastT {
		r.lastT = t
	}
}

// drainAfterCompletion retries queued jobs in FIFO order after machine mi
// retired a job. Feasibility is monotone in machine load — placing a job
// never turns an infeasible machine feasible, and a queued job was
// infeasible fleet-wide when it queued — so the only machine that can
// newly admit a queued job is the one that just completed. The incremental
// scorer therefore re-scores mi alone (O(1) per queued job); a reference
// selection re-scores the whole fleet and, by the same monotonicity, lands
// on the identical decision.
func (r *run) drainAfterCompletion(jobs []Job, mi int, t float64) {
	kept := r.pending[:0]
	for _, id := range r.pending {
		j := &jobs[id]
		var pmi int
		var cand candidate
		var ok bool
		if r.opt.Scorer == ScorerIncremental && r.opt.selectRef == nil {
			m := &r.states[mi]
			cand = r.s.admit(m, j, r.s.decide(m, j, r.s.soloBest(j), r.opt.QoS), r.opt.QoS)
			r.scored++
			pmi, ok = mi, cand.feasible
		} else {
			pmi, cand, ok = r.selectMachine(j)
		}
		if !ok {
			kept = append(kept, id)
			continue
		}
		r.place(j, pmi, cand, t)
	}
	r.pending = kept
}

// selectMachine runs the placement policy for j: the first machine in
// (congestion, index) order on which j has an admissible placement.
func (r *run) selectMachine(j *Job) (int, candidate, bool) {
	switch {
	case r.opt.selectRef != nil:
		return r.opt.selectRef(r, j)
	case r.opt.Scorer == ScorerBinpack:
		return r.selectBinpack(j)
	default:
		return r.selectIncremental(j)
	}
}

// selectIncremental walks machines in treap order on the calling goroutine
// and stops at the first feasible one — identical to the O(M) argmin over
// (congestion, index) because the congestion key is job-independent.
// Nearly every probe is a decision-table hit, so there is nothing for a
// fan-out to overlap.
func (r *run) selectIncremental(j *Job) (int, candidate, bool) {
	soloBest := r.s.soloBest(j)
	r.arrival++
	if n := int(r.s.templates.Load()); n > len(r.decided) {
		r.decided = append(r.decided, make([]arrivalDecision, n)...) // at least doubles
	}
	var cand candidate
	mi := -1
	r.treap.Walk(func(i int32) bool {
		m := &r.states[i]
		if m.freeTotal < 1 {
			return true
		}
		r.scored++
		d := &r.decided[m.tmpl]
		if d.arrival != r.arrival {
			*d = arrivalDecision{r.arrival, r.s.decide(m, j, soloBest, r.opt.QoS)}
		}
		if cand = r.s.admit(m, j, d.dec, r.opt.QoS); cand.feasible {
			mi = int(i)
		}
		return mi < 0
	})
	return mi, cand, mi >= 0
}

// selectBinpack is the interference-blind baseline: first machine by index
// with a free core; threads = min(budget, free), packed greedily. No QoS
// admission — the study counts the violations this causes.
func (r *run) selectBinpack(j *Job) (int, candidate, bool) {
	for mi := range r.states {
		m := &r.states[mi]
		if m.freeTotal < 1 {
			continue
		}
		r.scored++
		views := m.canon(r.f.Classes[m.class])
		t := j.MaxThreads
		if t > m.freeTotal {
			t = m.freeTotal
		}
		var dist distVec
		left := t
		for i := range views {
			k := views[i].free
			if k > left {
				k = left
			}
			dist[i] = int8(k)
			left -= k
			if left == 0 {
				break
			}
		}
		sm := r.s.soloFor(m.class, j, makeShapeKey(views, dist))
		cand := candidate{feasible: true, threads: t,
			unitSec: sm.unitSec, busJ: sm.busJ, sensJ: sm.sensJ}
		for i := range views {
			cand.dist[views[i].real] = dist[i]
		}
		return mi, cand, true
	}
	return 0, candidate{}, false
}

// advance reconciles the remaining work of every resident of machine mi to
// time t under the factors in force since the last event that touched it.
func (r *run) advance(mi int, t float64) {
	m := &r.states[mi]
	for _, pj := range m.residents {
		if dt := t - pj.lastT; dt > 0 {
			pj.remWork -= dt / pj.factor
			if pj.remWork < 0 {
				pj.remWork = 0
			}
		}
		pj.lastT = t
	}
}

// refresh recomputes machine mi's aggregates after a residency change and
// re-derives every resident's interference factor and completion event.
// Power, occupancy and (for the incremental scorer) the congestion treap
// are updated from the recomputed state.
func (r *run) refresh(mi int, t float64) {
	m := &r.states[mi]
	c := r.f.Classes[m.class]
	oldPower := m.power
	oldOcc := c.cores - m.freeTotal
	r.s.retemplate(m)
	r.totalPower += m.power - oldPower
	r.totalOcc += (c.cores - m.freeTotal) - oldOcc
	for _, pj := range m.residents {
		pj.factor = residentFactor(c, m, pj)
		pj.seq++
		r.heap.push(compEvent{t: t + pj.remWork*pj.factor, id: pj.id, seq: pj.seq})
	}
	if r.treap != nil {
		r.treap.Update(int32(mi), m.congestion)
	}
}

// place admits job j on machine mi under the chosen candidate at time t.
func (r *run) place(j *Job, mi int, cand candidate, t float64) {
	r.advance(mi, t)
	pj := &placedJob{
		id: j.ID, machine: mi, threads: cand.threads, dist: cand.dist,
		wsJ: j.wsJ, shareJ: j.shareJ, busJ: cand.busJ, sensJ: cand.sensJ,
		unitSec: cand.unitSec, soloBest: r.s.soloBest(j),
		remWork: cand.unitSec * float64(j.Size),
		lastT:   t, start: t, arrival: j.Arrival,
	}
	m := &r.states[mi]
	pos := sort.Search(len(m.residents), func(i int) bool { return m.residents[i].id >= pj.id })
	m.residents = append(m.residents, nil)
	copy(m.residents[pos+1:], m.residents[pos:])
	m.residents[pos] = pj
	r.byID[pj.id] = pj
	r.refresh(mi, t)
}

// complete retires job id at time t and records its schedule row.
func (r *run) complete(jobs []Job, id int, t float64) {
	pj := r.byID[id]
	mi := pj.machine
	r.advance(mi, t)
	m := &r.states[mi]
	for i, have := range m.residents {
		if have == pj {
			m.residents = append(m.residents[:i], m.residents[i+1:]...)
			break
		}
	}
	delete(r.byID, id)
	solo := pj.soloBest * float64(jobs[id].Size)
	r.res.Placed[id] = Placed{
		JobID: id, Machine: mi, Threads: pj.threads, Dist: pj.dist,
		Start: pj.start, Finish: t, SoloSec: solo,
		Slowdown: (t - pj.start) / solo,
	}
	r.refresh(mi, t)
}
