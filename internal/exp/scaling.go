package exp

// The one driver behind the two scaling studies (FutureScaling,
// HeteroScaling): build a list of synthetic machines, search every phase of
// every benchmark across each machine's candidate placements, and report per
// (machine, benchmark) how much of the all-cores time the per-phase best
// placement saves.

import (
	"fmt"
	"sort"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/parallel"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// scale is one synthetic machine of a scaling study. The study supplies
// name, topo and enumerate; scalingGains builds the rest.
type scale struct {
	// name labels the scale in errors.
	name string
	// topo builds the machine's topology.
	topo func() (*topology.Topology, error)
	// enumerate lists the candidate placements, the all-cores placement
	// last: the "use the whole machine" default the gain is normalised
	// against.
	enumerate func(*topology.Topology) []topology.Placement

	m          *machine.Machine
	placements []topology.Placement
}

func (sc *scale) build() error {
	topo, err := sc.topo()
	if err != nil {
		return fmt.Errorf("%s: %w", sc.name, err)
	}
	if sc.m, err = machine.New(topo); err != nil {
		return fmt.Errorf("%s: %w", sc.name, err)
	}
	sc.placements = sc.enumerate(topo)
	return nil
}

// phaseTimes is one phase's contribution to a cell: its time on all cores
// and under its best placement.
type phaseTimes struct{ all, best float64 }

// scalingGains builds every scale and returns gain[scale][bench] =
// 1 − bestTime/allCoresTime with oracle per-phase placements.
//
// Both stages fan out through the parallel engine. The search stage runs one
// task per (scale, benchmark, phase), the scale with the most placements
// first: tasks are claimed in order, so the work left when the queue runs dry
// is a single phase of the smallest machine rather than a whole benchmark of
// the largest, and consecutive tasks of a worker search the same placements,
// which keeps its pooled machine context's placement plans warm. A task
// takes the all-cores time from RunPhase and the oracle's from
// Machine.BestTime, which solves the fixed point only for the placements
// whose lower bound can still beat the best time found, and returns the
// minimum a full RunPhaseSweep would, bit for bit. Each task writes only its
// own slot; the slots of a cell are then added up serially in phase order —
// the additions a per-cell loop would make, in its order — and the machine
// model is pure, so the gains are bit-identical at any GOMAXPROCS.
func scalingGains(scales []scale, benches []*workload.Benchmark) ([][]float64, error) {
	errs := make([]error, len(scales))
	parallel.ForEach(len(scales), func(si int) { errs[si] = scales[si].build() })
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}

	phaseOff := make([]int, len(benches)+1)
	for bi, b := range benches {
		phaseOff[bi+1] = phaseOff[bi] + len(b.Phases)
	}
	nPhases := phaseOff[len(benches)]
	times := make([]phaseTimes, len(scales)*nPhases)

	heaviestFirst := make([]int, len(scales))
	for si := range heaviestFirst {
		heaviestFirst[si] = si
	}
	sort.SliceStable(heaviestFirst, func(i, j int) bool {
		return len(scales[heaviestFirst[i]].placements) > len(scales[heaviestFirst[j]].placements)
	})
	type task struct {
		sc    *scale
		phase *workload.PhaseProfile
		idio  float64
		out   *phaseTimes
	}
	tasks := make([]task, 0, len(times))
	for _, si := range heaviestFirst {
		for bi, b := range benches {
			for pi := range b.Phases {
				tasks = append(tasks, task{&scales[si], &b.Phases[pi], b.Idiosyncrasy, &times[si*nPhases+phaseOff[bi]+pi]})
			}
		}
	}
	parallel.ForEach(len(tasks), func(i int) {
		t := &tasks[i]
		pls := t.sc.placements
		all := t.sc.m.RunPhase(t.phase, t.idio, pls[len(pls)-1]).TimeSec
		best, _ := t.sc.m.BestTime(t.phase, t.idio, pls)
		*t.out = phaseTimes{all, best}
	})

	gains := make([][]float64, len(scales))
	for si := range scales {
		gains[si] = make([]float64, len(benches))
		for bi := range benches {
			var tAll, tBest float64
			for _, pt := range times[si*nPhases+phaseOff[bi] : si*nPhases+phaseOff[bi+1]] {
				tAll += pt.all
				tBest += pt.best
			}
			gains[si][bi] = 1 - tBest/tAll
		}
	}
	return gains, nil
}
