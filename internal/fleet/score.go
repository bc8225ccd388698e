package fleet

import (
	"math"

	"github.com/greenhpc/actor/internal/machine"
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
	f := (1 + float64(kCache*sens*extPress)) * (1 + float64(kBus*sens*over))
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
// the scheduler and the validator.
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

// soloFor solves (or recalls) the solo metrics of job j's signature under
// shape sk on class ci.
func (r *run) soloFor(ci int, j *Job, sk shapeKey) soloMetrics {
	key := soloKey{class: ci, sig: j.SigKey, shape: sk}
	if m, ok := r.solo[key]; ok {
		return m
	}
	c := r.f.Classes[ci]
	pls := []topology.Placement{c.placementFor(sk)}
	var m soloMetrics
	var res [1]machine.Result
	var util float64
	for pi := range j.Phases {
		c.Model.RunPhaseSweep(&j.Phases[pi], j.Idio, pls, res[:])
		m.unitSec += res[0].TimeSec
		m.busJ += float64(res[0].TimeSec * res[0].Activity.BusUtilization)
		util += float64(res[0].TimeSec * res[0].Activity.AvgCoreUtil)
	}
	m.busJ /= m.unitSec
	m.sensJ = 1 - util/m.unitSec
	if m.sensJ < 0 {
		m.sensJ = 0
	}
	r.solo[key] = m
	return m
}

// soloBest returns the fastest solo unit time of j's signature across
// every fleet class and admissible shape with budget j.MaxThreads — the QoS
// reference point: a job's degradation bound is relative to the best the
// fleet could have given it on an empty machine. A run asks once per job
// class (run.class).
func (r *run) soloBest(j *Job) float64 {
	best := math.Inf(1)
	for ci, c := range r.f.Classes {
		var empty resState
		empty.recompute(c, nil)
		views := empty.canon(c)
		r.shapes = enumerateShapes(views, j.MaxThreads, r.shapes)
		for _, sh := range r.shapes {
			if m := r.soloFor(ci, j, makeShapeKey(views, sh.dist)); m.unitSec < best {
				best = m.unitSec
			}
		}
	}
	return best
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
// template and returns the decision: the feasible shape with the fastest
// predicted unit time (solo × interference), candidate order breaking ties.
// It reads nothing of m but the class and the template.
func (r *run) chooseShape(m *machState, j *Job, soloBest float64) candidate {
	c := r.f.Classes[m.class]
	views := m.canon(c)
	r.shapes = enumerateShapes(views, j.MaxThreads, r.shapes)
	bound := (1 + r.opt.QoS) * soloBest
	var dec candidate
	bestPred := math.Inf(1)
	for _, sh := range r.shapes {
		sm := r.soloFor(m.class, j, makeShapeKey(views, sh.dist))
		// External cache pressure the job sees: resident working sets in
		// the groups it occupies, thread-weighted.
		var ext float64
		for i := range views {
			if k := int(sh.dist[i]); k > 0 {
				ext += float64(float64(k) * (views[i].ws / c.l2Bytes))
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

// admit takes the template-level decision dec for job j to machine m:
// placing the job must not push any resident's predicted slowdown beyond
// its own QoS bound. The returned candidate has dist mapped to m's real
// group indices; it is infeasible when dec is or a resident objects. It
// reads only m's resident state and j's class, which is what lets a run
// keep one verdict per (job class, state) (run.verdict).
func (r *run) admit(m *machState, j *Job, dec *candidate) candidate {
	if !dec.feasible {
		return candidate{}
	}
	c := r.f.Classes[m.class]
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
	for _, pj := range m.residents {
		var ext float64
		for g := 0; g < len(c.groupSize); g++ {
			if k := int(pj.dist[g]); k > 0 {
				own := wsContribution(pj.wsJ, pj.shareJ, k)
				ext += float64(float64(k) * ((m.ws[g] - own + addWs[g]) / c.l2Bytes))
			}
		}
		ext /= float64(pj.threads)
		fac := composeFactor(pj.sensJ, ext, newBus)
		if pj.unitSec*fac > (1+r.opt.QoS)*pj.soloBest {
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
			ext += float64(float64(k) * ((st.ws[g] - own) / c.l2Bytes))
		}
	}
	ext /= float64(r.threads)
	return composeFactor(r.sensJ, ext, st.busSum)
}
