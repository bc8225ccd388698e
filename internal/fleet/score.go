package fleet

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/memo"
	"github.com/greenhpc/actor/internal/topology"
)

// composeFactor is the cross-job interference model: a memory-sensitive
// job (sens = 1 − solo core utilisation) slows down with the external L2
// pressure in its groups and with fleet bus overcommit. The same function
// predicts a candidate's slowdown at admission and stretches resident
// runtimes in the simulator, so admission-time QoS checks bound realised
// degradation exactly.
func composeFactor(sens, extPress, busTotal float64) float64 {
	if extPress > cacheCap {
		extPress = cacheCap
	}
	over := busTotal - 1
	if over < 0 {
		over = 0
	}
	f := (1 + kCache*sens*extPress) * (1 + kBus*sens*over)
	if f > maxFactor {
		f = maxFactor
	}
	return f
}

// shape is one candidate thread distribution in canonical-template space:
// dist[i] threads on the i-th canonical group. Candidates are enumerated
// thread count ascending, packed before spread — on an empty quad-core
// Xeon that is exactly the paper's 1, 2a, 2b, 3, 4 order, which is what
// makes the one-machine fleet reproduce GlobalOptimal's tie-break.
type shape struct {
	threads int
	dist    distVec
}

// enumerateShapes appends the candidate shapes for a job with budget maxT
// on a machine whose canonical groups are views: for each t ≤ maxT that
// fits the residual free cores, a packed variant (fill canonical groups in
// order) and a spread variant (round-robin one thread at a time). Equal
// variants are emitted once.
func enumerateShapes(views []groupView, maxT int, dst []shape) []shape {
	freeTotal := 0
	for i := range views {
		freeTotal += views[i].free
	}
	if maxT > freeTotal {
		maxT = freeTotal
	}
	dst = dst[:0]
	for t := 1; t <= maxT; t++ {
		var packed distVec
		left := t
		for i := range views {
			k := views[i].free
			if k > left {
				k = left
			}
			packed[i] = int8(k)
			left -= k
			if left == 0 {
				break
			}
		}
		var spread distVec
		left = t
		for left > 0 {
			placed := false
			for i := range views {
				if int(spread[i]) < views[i].free {
					spread[i]++
					left--
					placed = true
					if left == 0 {
						break
					}
				}
			}
			if !placed {
				break
			}
		}
		dst = append(dst, shape{threads: t, dist: packed})
		if spread != packed {
			dst = append(dst, shape{threads: t, dist: spread})
		}
	}
	return dst
}

// soloMetrics is the outcome of solving a job signature solo on an empty
// machine under one shape: seconds per iteration plus the time-weighted
// activity summary that parameterises the job's interference profile.
type soloMetrics struct {
	unitSec float64 // one iteration, all phases
	busJ    float64 // time-weighted mean bus occupancy
	sensJ   float64 // 1 − time-weighted mean core utilisation
}

// placementFor builds the canonical placement realising a shape on an
// empty machine of class c: the first real groups of each kind host the
// sorted loads. The placement is named after the shape so the machine
// model's deterministic response perturbation is keyed consistently for
// both scorers.
func (c *Class) placementFor(sk shapeKey) topology.Placement {
	pl := topology.Placement{Name: "fleet:" + sk.String()}
	var nextGroup [maxGroups]int
	for _, l := range sk.kl[:sk.n] {
		gi := c.kindGroups[l.kind][nextGroup[l.kind]]
		nextGroup[l.kind]++
		pl.Cores = append(pl.Cores, c.Topo.L2Groups[gi][:l.load]...)
	}
	return pl
}

// scorer holds the scoring memos shared by a scheduling run (and safely by
// the tests' O(M) reference, which scores machines concurrently), all
// internal/memo tables over the typed keys of keys.go.
type scorer struct {
	f *Fleet
	// solo memoises the solo metrics per (class, signature, shape).
	solo memo.Table[soloKey, soloMetrics]
	// best memoises soloBest per (signature, budget).
	best memo.Table[bestKey, float64]
	// template interns canonical residual templates into ids, dense from 0
	// in first-seen order; templates counts the ids handed out.
	template  memo.Table[templateKey, int32]
	templates atomic.Int32
	// decision memoises chooseShape per (template id, signature, budget).
	// Only the incremental scorer consults it, when it computes a verdict
	// (run.verdict); the O(M) reference recomputes.
	decision memo.Table[decisionKey, candidate]

	pool sync.Pool // *scratch
}

type scratch struct {
	shapes []shape
}

func newScorer(f *Fleet) *scorer {
	s := &scorer{f: f}
	s.pool.New = func() any {
		return &scratch{shapes: make([]shape, 0, 2*maxGroups)}
	}
	return s
}

// intern returns the id of the canonical template of st on a class-ci
// machine. Machines whose residual states are equal group-for-group —
// whichever real groups hold them — share an id, and with it every
// memoised decision.
func (s *scorer) intern(ci int, st *resState) int32 {
	key, h := makeTemplateKey(ci, st.canon(s.f.Classes[ci]), st.busSum, st.maxSens)
	if id := s.template.Get(h, &key); id != nil {
		return *id
	}
	return *s.template.Put(h, key, s.templates.Add(1)-1)
}

// soloFor solves (or recalls) the solo metrics of job j's signature under
// shape sk on class ci.
func (s *scorer) soloFor(ci int, j *Job, sk shapeKey) *soloMetrics {
	key := soloKey{class: ci, sig: j.SigKey, shape: sk}
	h := key.hash()
	if m := s.solo.Get(h, &key); m != nil {
		return m
	}
	c := s.f.Classes[ci]
	pls := []topology.Placement{c.placementFor(sk)}
	var m soloMetrics
	var res [1]machine.Result
	var util float64
	for pi := range j.Phases {
		c.Model.RunPhaseSweep(&j.Phases[pi], j.Idio, pls, res[:])
		m.unitSec += res[0].TimeSec
		m.busJ += res[0].TimeSec * res[0].Activity.BusUtilization
		util += res[0].TimeSec * res[0].Activity.AvgCoreUtil
	}
	m.busJ /= m.unitSec
	m.sensJ = 1 - util/m.unitSec
	if m.sensJ < 0 {
		m.sensJ = 0
	}
	return s.solo.Put(h, key, m)
}

// soloBest returns the fastest solo unit time of j's signature across
// every fleet class and admissible shape with budget j.MaxThreads — the QoS
// reference point: a job's degradation bound is relative to the best the
// fleet could have given it on an empty machine.
func (s *scorer) soloBest(j *Job) float64 {
	key := bestKey{sig: j.SigKey, maxT: j.MaxThreads}
	h := key.hash()
	if v := s.best.Get(h, &key); v != nil {
		return *v
	}
	sc := s.pool.Get().(*scratch)
	defer s.pool.Put(sc)
	best := math.Inf(1)
	for ci, c := range s.f.Classes {
		var empty resState
		empty.recompute(c, nil)
		views := empty.canon(c)
		sc.shapes = enumerateShapes(views, j.MaxThreads, sc.shapes)
		for _, sh := range sc.shapes {
			m := s.soloFor(ci, j, makeShapeKey(views, sh.dist))
			if m.unitSec < best {
				best = m.unitSec
			}
		}
	}
	return *s.best.Put(h, key, best)
}

// candidate is a scoring decision for (machine template, job): the chosen
// shape in canonical-group coordinates plus the metrics the simulator
// needs to admit and run the job. feasible=false means no shape on this
// template passes the job's own QoS bound.
type candidate struct {
	feasible bool
	threads  int
	dist     distVec // canonical-group coordinates
	unitSec  float64 // solo seconds per iteration under the shape
	factor   float64 // predicted interference factor at admission
	busJ     float64
	sensJ    float64
}

// chooseShape evaluates every admissible shape of j on m's canonical
// template and returns the decision: the feasible shape
// with the fastest predicted unit time (solo × interference), candidate
// order breaking ties. It reads nothing of m but the template, which is
// what lets the incremental scorer memoise it under the template's id
// (decide).
func (s *scorer) chooseShape(m *machState, j *Job, soloBest, qos float64, sc *scratch) candidate {
	c := s.f.Classes[m.class]
	views := m.canon(c)
	sc.shapes = enumerateShapes(views, j.MaxThreads, sc.shapes)
	bound := (1 + qos) * soloBest
	var dec candidate
	bestPred := math.Inf(1)
	for _, sh := range sc.shapes {
		sm := s.soloFor(m.class, j, makeShapeKey(views, sh.dist))
		// External cache pressure the job sees: resident working sets in
		// the groups it occupies, thread-weighted.
		var ext float64
		for i := range views {
			if k := int(sh.dist[i]); k > 0 {
				ext += float64(k) * (views[i].ws / c.l2Bytes)
			}
		}
		ext /= float64(sh.threads)
		fac := composeFactor(sm.sensJ, ext, m.busSum+sm.busJ)
		pred := sm.unitSec * fac
		if pred > bound {
			continue
		}
		if pred < bestPred {
			bestPred = pred
			dec = candidate{
				feasible: true,
				threads:  sh.threads,
				dist:     sh.dist,
				unitSec:  sm.unitSec,
				factor:   fac,
				busJ:     sm.busJ,
				sensJ:    sm.sensJ,
			}
		}
	}
	return dec
}

// decide is chooseShape on m's template, memoised under the template's id.
func (s *scorer) decide(m *machState, j *Job, soloBest, qos float64) *candidate {
	key := decisionKey{tmpl: m.tmpl, maxT: j.MaxThreads, sig: j.SigKey}
	h := key.hash()
	if dec := s.decision.Get(h, &key); dec != nil {
		return dec
	}
	sc := s.pool.Get().(*scratch)
	defer s.pool.Put(sc)
	return s.decision.Put(h, key, s.chooseShape(m, j, soloBest, qos, sc))
}

// admit takes the template-level decision dec for job j to machine m:
// placing the job must not push any resident's predicted slowdown beyond
// its own QoS bound. The returned candidate has dist mapped to m's real
// group indices; it is infeasible when dec is or a resident objects. It
// reads only m's resident state and j's class, which is what lets a run
// keep one verdict per (job class, state) (run.verdict).
func (s *scorer) admit(m *machState, j *Job, dec *candidate, qos float64) candidate {
	if !dec.feasible {
		return candidate{}
	}
	c := s.f.Classes[m.class]
	views := m.canon(c)

	// Map the canonical-group distribution onto real groups, then check
	// the marginal impact on every resident against its absolute bound.
	out := *dec
	var real distVec
	var addWs [maxGroups]float64
	for i := range views {
		if k := dec.dist[i]; k > 0 {
			g := views[i].real
			real[g] = k
			addWs[g] = wsContribution(j.wsJ, j.shareJ, int(k))
		}
	}
	out.dist = real
	newBus := m.busSum + dec.busJ
	for _, r := range m.residents {
		var ext float64
		for g := 0; g < len(c.groupSize); g++ {
			if k := int(r.dist[g]); k > 0 {
				own := wsContribution(r.wsJ, r.shareJ, k)
				ext += float64(k) * ((m.ws[g] - own + addWs[g]) / c.l2Bytes)
			}
		}
		ext /= float64(r.threads)
		fac := composeFactor(r.sensJ, ext, newBus)
		if r.unitSec*fac > (1+qos)*r.soloBest {
			return candidate{}
		}
	}
	return out
}

// residentFactor computes the realised interference factor of resident r
// of a class-c machine in resident state st — the same composeFactor the
// admission path uses, so admission bounds are exact.
func residentFactor(c *Class, st *resState, r *placedJob) float64 {
	var ext float64
	for g := 0; g < len(c.groupSize); g++ {
		if k := int(r.dist[g]); k > 0 {
			own := wsContribution(r.wsJ, r.shareJ, k)
			ext += float64(k) * ((st.ws[g] - own) / c.l2Bytes)
		}
	}
	ext /= float64(r.threads)
	return composeFactor(r.sensJ, ext, st.busSum)
}
