package fleet

// The O(M) reference scorer: it re-scores every machine on every arrival
// and on every queue retry, recomputing each template-level decision in
// machine order. It implements the incremental scorer's policy without its
// probe index, its verdict rows or its single-machine retry, so
// TestScorerBitIdentity and TestGOMAXPROCSDeterminism compare the shipped
// scorer against it.

// naive returns opt scheduling through the O(M) reference.
func naive(opt Options) Options {
	opt.selectRef = (*run).selectNaive
	return opt
}

// selectNaive is the O(M) reference selection: score every machine, take
// the feasible one with the smallest (congestion, index).
func (r *run) selectNaive(j *Job) (int, candidate, bool) {
	soloBest := r.class(j).soloBest
	best := -1
	var bestCand candidate
	for i := range r.states {
		m := &r.states[i]
		cand := r.scoreMachine(m, j, soloBest)
		if cand.feasible && (best < 0 || m.congestion < r.states[best].congestion) {
			best, bestCand = i, cand
		}
	}
	r.scored += int64(len(r.states))
	if best < 0 {
		return 0, candidate{}, false
	}
	return best, bestCand, true
}

// scoreMachine is selectNaive's admission decision of job j on machine m:
// the template-level shape choice, recomputed where the incremental scorer
// reads a verdict row, followed by the same admit.
func (r *run) scoreMachine(m *machState, j *Job, soloBest float64) candidate {
	if m.freeTotal < 1 {
		return candidate{}
	}
	dec := r.chooseShape(m, j, soloBest)
	return r.admit(m, j, &dec)
}
