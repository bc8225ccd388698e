package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"
)

// LiveTuner is the instrumentation-based throttling controller for real
// programs, wrapping each phase execution in Begin/End calls exactly like
// the paper's ACTOR library calls around OpenMP parallel regions.
//
// On the paper's platform the online signal is hardware counter rates; Go
// offers no portable access to performance counters, so the live tuner uses
// measured phase throughput as its fitness signal and the empirical-search
// policy of the authors' earlier work [17] — probing each candidate
// concurrency level for a configurable number of executions, then locking
// in the fastest — on a tie, the fewest threads. (The substitution is
// documented in DESIGN.md; the simulated path exercises the full counter +
// ANN pipeline.)
type LiveTuner struct {
	candidates []int
	probes     int
	now        func() time.Time

	phase      int // index into candidates*probes during search
	times      []float64
	inPhase    bool
	began      time.Time
	decided    bool
	choice     int
	executions int
}

// NewLiveTuner creates a tuner over candidate thread counts, probing each
// `probes` times before deciding. Candidates must be positive; they are
// probed in the given order.
func NewLiveTuner(candidates []int, probes int) (*LiveTuner, error) {
	if len(candidates) == 0 {
		return nil, errors.New("core: live tuner needs candidates")
	}
	for _, c := range candidates {
		if c < 1 {
			return nil, fmt.Errorf("core: invalid candidate thread count %d", c)
		}
	}
	if probes < 1 {
		probes = 1
	}
	return &LiveTuner{
		candidates: append([]int(nil), candidates...),
		probes:     probes,
		now:        time.Now,
		times:      make([]float64, len(candidates)),
	}, nil
}

// Begin starts one phase execution and returns the thread count to use.
// Every Begin must be matched by End.
func (lt *LiveTuner) Begin() int {
	if lt.inPhase {
		panic("core: LiveTuner.Begin without matching End")
	}
	lt.inPhase = true
	lt.began = lt.now()
	if lt.decided {
		return lt.choice
	}
	return lt.candidates[lt.currentCandidate()]
}

// End finishes the phase execution begun by Begin.
func (lt *LiveTuner) End() {
	if !lt.inPhase {
		panic("core: LiveTuner.End without Begin")
	}
	lt.inPhase = false
	elapsed := lt.now().Sub(lt.began).Seconds()
	lt.executions++
	if lt.decided {
		return
	}
	lt.times[lt.currentCandidate()] += elapsed
	lt.phase++
	if lt.phase >= len(lt.candidates)*lt.probes {
		lt.choice = lt.ProbeTimes()[0].Threads
		lt.decided = true
	}
}

func (lt *LiveTuner) currentCandidate() int {
	c := lt.phase / lt.probes
	if c >= len(lt.candidates) {
		c = len(lt.candidates) - 1
	}
	return c
}

// Choice returns the locked concurrency level (0 before a decision).
func (lt *LiveTuner) Choice() int {
	if !lt.decided {
		return 0
	}
	return lt.choice
}

// LiveProbe is one candidate thread count's accumulated probe time.
type LiveProbe struct {
	Threads  int
	ProbeSec float64
}

// ProbeTimes returns every candidate's accumulated probe time, fastest
// first; equal times rank the smaller thread count first. Once the tuner
// has decided, the first entry is its choice.
func (lt *LiveTuner) ProbeTimes() []LiveProbe {
	out := make([]LiveProbe, len(lt.candidates))
	for i, c := range lt.candidates {
		out[i] = LiveProbe{Threads: c, ProbeSec: lt.times[i]}
	}
	slices.SortStableFunc(out, func(a, b LiveProbe) int {
		return cmp.Or(cmp.Compare(a.ProbeSec, b.ProbeSec), cmp.Compare(a.Threads, b.Threads))
	})
	return out
}

// DefaultCandidates returns the descending thread-count ladder {max, …, 1}
// usually probed on a machine with max hardware threads.
func DefaultCandidates(max int) []int {
	if max < 1 {
		max = 1
	}
	out := make([]int, 0, max)
	for c := max; c >= 1; c-- {
		out = append(out, c)
	}
	return out
}
