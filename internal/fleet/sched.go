package fleet

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/greenhpc/actor/internal/fnv"
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

	// selectRef, when set, replaces the incremental probe and its
	// single-machine queue retry with a reference selection: the tests'
	// O(M) argmin, which must schedule byte-identically.
	selectRef func(r *run, j *Job) (int, candidate, bool)
}

func (o *Options) resolve() (Options, error) {
	r := *o
	if r.QoS == 0 {
		r.QoS = 0.25
	}
	if r.QoS < 0 || math.IsNaN(r.QoS) || math.IsInf(r.QoS, 0) {
		return r, fmt.Errorf("fleet: QoS bound %g is not a finite non-negative number", r.QoS)
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
	// States is the size the resident-state table ended the run at: how
	// few distinct resident lists the fleet passed through. A binpack run
	// keeps no table.
	States int
}

// Digest is a fingerprint of the schedule rows in job-ID order (scorer name
// and work counters excluded), the equality witness of the
// incremental-vs-naive and GOMAXPROCS determinism properties: the module's
// FNV-1a fold (internal/fnv) over each row's fields, byte by byte.
func (r *Result) Digest() uint64 {
	h := fnv.Start
	for i := range r.Placed {
		p := &r.Placed[i]
		h = fnv.WordBytes(h, uint64(p.JobID))
		h = fnv.WordBytes(h, uint64(p.Machine))
		h = fnv.WordBytes(h, uint64(p.Threads))
		var d uint64
		for g := 0; g < maxGroups; g++ {
			d = d<<4 | uint64(p.Dist[g])
		}
		h = fnv.WordBytes(h, d)
		h = fnv.WordBytes(h, math.Float64bits(p.Start))
		h = fnv.WordBytes(h, math.Float64bits(p.Finish))
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

// run is one scheduling pass: the machines' states, the event loop's
// queues and the three tables every admission decision reads — the solo
// table, the resident-state table and the job classes' verdict rows. Each
// fact is held once; a pass runs on the calling goroutine.
type run struct {
	f      *Fleet
	opt    Options
	states []machState
	probe  *probeIndex // incremental scorer only

	// solo holds the solo metrics per (class, signature, shape); shapes is
	// the candidate buffer soloBest and chooseShape enumerate into.
	solo   map[soloKey]soloMetrics
	shapes []shape

	// The resident-state table (incremental scorer only): table[id] is the
	// shared record of state id, and byList interns records by (class,
	// ordered list of residents' (job class, real dist)). key is byList's
	// scratch key.
	table  []*resState
	byList map[string]int32
	key    []byte

	// classOf holds every job's class, (signature, budget), numbered in
	// stream order; classes holds each class's solo best and verdict row,
	// and verdicts the candidates the rows index.
	classOf  []int32
	classes  []jobClass
	verdicts []candidate

	// byID holds the record of every resident job at its ID (Schedule
	// refuses a stream whose IDs are not positions), nil before placement
	// and after completion, so a completed job's stale heap events find no
	// record; live counts the non-nil slots. Completed records wait in
	// spare for the next placement.
	byID  []*placedJob
	live  int
	spare []*placedJob

	heap    compHeap
	pending []int // queued job indices, FIFO

	totalPower float64
	totalOcc   int
	lastT      float64
	energy     float64
	busySec    float64

	scored int64
	res    *Result
}

// jobClass is what a run keeps per job class: the class's solo best, zero
// until its first use, and its verdict row — state id → 1 + the index of
// the class's verdict on the state in run.verdicts, or 0 before the first.
type jobClass struct {
	soloBest float64
	row      []int32
}

// Schedule places the job stream on the fleet and simulates it to
// completion. Jobs and fleet are read-only; one Fleet serves concurrent
// Schedule calls.
func Schedule(f *Fleet, jobs []Job, opt Options) (*Result, error) {
	r, err := schedule(f, jobs, opt)
	if err != nil {
		return nil, err
	}
	return r.res, nil
}

// schedule is Schedule returning the finished run, so a test can read the
// tables it filled.
func schedule(f *Fleet, jobs []Job, opt Options) (*run, error) {
	ropt, err := opt.resolve()
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("fleet: empty job stream")
	}
	r, err := newRun(f, jobs, ropt)
	if err != nil {
		return nil, err
	}

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
	for ai < len(order) || r.live > 0 {
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
	res.States = len(r.table)
	return r, nil
}

// newRun checks the job stream and builds the idle-fleet state of one
// scheduling pass. Checking the stream also numbers its job classes. An
// incremental run interns each class's idle state and files every machine
// in the probe index; a binpack run gives each machine a record of its own.
func newRun(f *Fleet, jobs []Job, opt Options) (*run, error) {
	r := &run{
		f:       f,
		opt:     opt,
		states:  make([]machState, f.Machines()),
		solo:    map[soloKey]soloMetrics{},
		shapes:  make([]shape, 0, 2*maxGroups),
		byID:    make([]*placedJob, len(jobs)),
		classOf: make([]int32, len(jobs)),
		res:     &Result{Scorer: opt.Scorer, QoS: opt.QoS, Placed: make([]Placed, len(jobs))},
	}
	ids := map[bestKey]int32{}
	for i := range jobs {
		j := &jobs[i]
		switch {
		case j.ID != i:
			return nil, fmt.Errorf("fleet: job at stream position %d has ID %d", i, j.ID)
		case j.MaxThreads < 1:
			return nil, fmt.Errorf("fleet: job %d has thread budget %d", i, j.MaxThreads)
		case j.Size < 1:
			return nil, fmt.Errorf("fleet: job %d has size %d", i, j.Size)
		case !(j.Arrival >= 0) || math.IsInf(j.Arrival, 1):
			return nil, fmt.Errorf("fleet: job %d arrives at %g", i, j.Arrival)
		}
		key := bestKey{sig: j.SigKey, maxT: j.MaxThreads}
		id, ok := ids[key]
		if !ok {
			id = int32(len(ids))
			ids[key] = id
		}
		r.classOf[i] = id
	}
	r.classes = make([]jobClass, len(ids))
	if opt.Scorer == ScorerBinpack {
		own := make([]resState, len(r.states))
		for i := range r.states {
			m := &r.states[i]
			m.class, m.resState = f.MachineClass[i], &own[i]
			m.recompute(f.Classes[m.class], nil)
			r.totalPower += m.power
		}
		return r, nil
	}
	r.byList = map[string]int32{}
	r.probe = newProbeIndex(f.Machines())
	for i := range r.states {
		m := &r.states[i]
		m.class = f.MachineClass[i]
		m.resState = r.intern(m)
		r.totalPower += m.power
		r.probe.move(i, m.congestion, m.id)
	}
	return r, nil
}

// intern returns the shared record of m's resident state — a key build over
// the residents and one map read — recomputing it only when the state is
// new. A state is the machine's class plus the ordered list of its
// residents' (job class, real distribution): that is all recompute reads,
// given the SigKey contract — jobs of one signature have one footprint
// (wsJ, shareJ) and one solo solve (busJ, sensJ, unitSec) per (machine
// class, signature, shape), and one solo best per (signature, budget) — and
// the shape is a function of the class and the real distribution. Interning
// by the list, not by the path, gives a state reached two ways one id, one
// probe bucket and one verdict per job class.
func (r *run) intern(m *machState) *resState {
	c := r.f.Classes[m.class]
	k := binary.LittleEndian.AppendUint32(r.key[:0], uint32(m.class))
	for _, pj := range m.residents {
		k = binary.LittleEndian.AppendUint32(k, uint32(r.classOf[pj.id]))
		for _, d := range pj.dist[:len(c.groupSize)] {
			k = append(k, byte(d))
		}
	}
	r.key = k
	if id, ok := r.byList[string(k)]; ok {
		return r.table[id]
	}
	st := &resState{id: int32(len(r.table))}
	st.recompute(c, m.residents)
	r.table = append(r.table, st)
	r.byList[string(k)] = st.id
	return st
}

// class returns job j's class record, its solo best filled on first use.
func (r *run) class(j *Job) *jobClass {
	jc := &r.classes[r.classOf[j.ID]]
	if jc.soloBest == 0 {
		jc.soloBest = r.soloBest(j)
	}
	return jc
}

// verdict is the admission of job j to a machine in m's resident state:
// admit of chooseShape's decision on the state's template — the candidate
// mapped onto real groups — or an infeasible candidate. Every input of the
// pair is a function of the state and j's class, so it is computed once per
// (job class, state), on first use, and read back for every machine in the
// state.
func (r *run) verdict(j *Job, m *machState) candidate {
	jc := r.class(j)
	if int(m.id) >= len(jc.row) {
		jc.row = append(jc.row, make([]int32, len(r.table)-len(jc.row))...)
	}
	v := jc.row[m.id]
	if v == 0 {
		dec := r.chooseShape(m, j, jc.soloBest)
		r.verdicts = append(r.verdicts, r.admit(m, j, &dec))
		v = int32(len(r.verdicts))
		jc.row[m.id] = v
	}
	return r.verdicts[v-1]
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
		r.energy += float64(r.totalPower * dt)
		r.busySec += float64(float64(r.totalOcc) * dt)
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
			cand = r.verdict(j, &r.states[mi])
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

// selectIncremental finds the first machine in (congestion, index) order
// on which j is admissible — identical to the O(M) argmin over (congestion,
// index) because the congestion key is job-independent. The probe index
// asks for one verdict per bucket of machines in one resident state, so an
// arrival costs the buckets it passes, not the machines; the machines of a
// rejected bucket ahead of the chosen one count as scored. Nearly every
// verdict is a table read, so there is nothing for a fan-out to overlap.
func (r *run) selectIncremental(j *Job) (int, candidate, bool) {
	mi, scored := r.probe.choose(func(state int32, member int) probeVerdict {
		switch {
		case r.table[state].freeTotal < 1:
			return probeFull
		case r.verdict(j, &r.states[member]).feasible:
			return probeFeasible
		}
		return probeInfeasible
	})
	r.scored += scored
	if mi < 0 {
		return 0, candidate{}, false
	}
	return mi, r.verdict(j, &r.states[mi]), true
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
		sm := r.soloFor(m.class, j, makeShapeKey(views, dist))
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
	for i, pj := range m.residents {
		if dt := t - pj.lastT; dt > 0 {
			pj.remWork -= dt / m.factors[i]
			if pj.remWork < 0 {
				pj.remWork = 0
			}
		}
		pj.lastT = t
	}
}

// refresh moves machine mi to the resident state its changed resident list
// is in — the interned record of the state in an incremental run, its own
// record recomputed in a binpack run — and re-derives every resident's
// completion event from the state's factors. Power, occupancy and (for the
// incremental scorer) the probe index follow the state.
func (r *run) refresh(mi int, t float64) {
	m := &r.states[mi]
	oldPower, oldFree := m.power, m.freeTotal
	if r.probe == nil {
		m.recompute(r.f.Classes[m.class], m.residents)
	} else {
		m.resState = r.intern(m)
		r.probe.move(mi, m.congestion, m.id)
	}
	r.totalPower += m.power - oldPower
	r.totalOcc += oldFree - m.freeTotal
	for i, pj := range m.residents {
		pj.seq++
		r.heap.push(compEvent{t: t + float64(pj.remWork*m.factors[i]), id: pj.id, seq: pj.seq})
	}
}

// place admits job j on machine mi under the chosen candidate at time t.
func (r *run) place(j *Job, mi int, cand candidate, t float64) {
	r.advance(mi, t)
	var pj *placedJob
	if n := len(r.spare); n > 0 {
		pj, r.spare = r.spare[n-1], r.spare[:n-1]
	} else {
		pj = new(placedJob)
	}
	*pj = placedJob{
		id: j.ID, machine: mi, threads: cand.threads, dist: cand.dist,
		wsJ: j.wsJ, shareJ: j.shareJ, busJ: cand.busJ, sensJ: cand.sensJ,
		unitSec: cand.unitSec, soloBest: r.class(j).soloBest,
		remWork: cand.unitSec * float64(j.Size),
		lastT:   t, start: t, arrival: j.Arrival,
	}
	m := &r.states[mi]
	pos := len(m.residents)
	for pos > 0 && m.residents[pos-1].id > pj.id {
		pos--
	}
	m.residents = append(m.residents, nil)
	copy(m.residents[pos+1:], m.residents[pos:])
	m.residents[pos] = pj
	r.byID[pj.id] = pj
	r.live++
	r.refresh(mi, t)
}

// complete retires job id at time t and records its schedule row.
func (r *run) complete(jobs []Job, id int, t float64) {
	pj := r.byID[id]
	mi := pj.machine
	r.advance(mi, t)
	m := &r.states[mi]
	pos := slices.Index(m.residents, pj)
	m.residents = slices.Delete(m.residents, pos, pos+1)
	r.byID[id] = nil
	r.live--
	solo := pj.soloBest * float64(jobs[id].Size)
	r.res.Placed[id] = Placed{
		JobID: id, Machine: mi, Threads: pj.threads, Dist: pj.dist,
		Start: pj.start, Finish: t, SoloSec: solo,
		Slowdown: (t - pj.start) / solo,
	}
	r.spare = append(r.spare, pj)
	r.refresh(mi, t)
}
