package fleet

import "github.com/greenhpc/actor/internal/parallel"

// The O(M) reference scorer: it re-scores every machine on every arrival
// and on every queue retry, recomputing each template-level decision. It
// implements the incremental scorer's policy without its probe index, its
// decision memo or its single-machine retry, so TestScorerBitIdentity and
// TestGOMAXPROCSDeterminism compare the shipped scorer against it.

// naive returns opt scheduling through the O(M) reference.
func naive(opt Options) Options {
	opt.selectRef = (*run).selectNaive
	return opt
}

// selectNaive is the O(M) reference selection: score every machine, take
// the feasible one with the smallest (congestion, index).
func (r *run) selectNaive(j *Job) (int, candidate, bool) {
	soloBest := r.s.soloBest(j)
	n := len(r.states)
	cands := make([]candidate, n)
	parallel.ForEach(n, func(i int) {
		cands[i] = r.s.scoreMachine(&r.states[i], j, soloBest, r.opt.QoS)
	})
	r.scored += int64(n)
	best := -1
	for i := range cands {
		if !cands[i].feasible {
			continue
		}
		if best < 0 ||
			r.states[i].congestion < r.states[best].congestion ||
			(r.states[i].congestion == r.states[best].congestion && i < best) {
			best = i
		}
	}
	if best < 0 {
		return 0, candidate{}, false
	}
	return best, cands[best], true
}

// scoreMachine is selectNaive's admission decision of job j on
// machine m: the template-level shape choice, recomputed where the
// incremental scorer calls decide, followed by the same admit.
func (s *scorer) scoreMachine(m *machState, j *Job, soloBest, qos float64) candidate {
	if m.freeTotal < 1 {
		return candidate{}
	}
	sc := s.pool.Get().(*scratch)
	defer s.pool.Put(sc)
	dec := s.chooseShape(m, j, soloBest, qos, sc)
	return s.admit(m, j, &dec, qos)
}
