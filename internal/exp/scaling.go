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
// name, topo and prepare; scalingGains builds the rest.
type scale struct {
	// name labels the scale in errors.
	name string
	// topo builds the machine's topology.
	topo func() (*topology.Topology, error)
	// prepare builds the oracle search over the machine's candidate
	// placements and returns it with the all-cores placement: the "use the
	// whole machine" default the gain is normalised against.
	prepare func(*machine.Machine) (*machine.Search, topology.Placement)

	m      *machine.Machine
	all    topology.Placement
	search *machine.Search
}

func (sc *scale) build() error {
	topo, err := sc.topo()
	if err != nil {
		return fmt.Errorf("%s: %w", sc.name, err)
	}
	if sc.m, err = machine.New(topo); err != nil {
		return fmt.Errorf("%s: %w", sc.name, err)
	}
	sc.search, sc.all = sc.prepare(sc.m)
	return nil
}

// phaseTimes is one phase's contribution to a cell: its time on all cores
// and under its best placement.
type phaseTimes struct{ all, best float64 }

// scalingGains builds every scale and returns gain[scale][bench] =
// 1 − bestTime/allCoresTime with oracle per-phase placements.
//
// Both stages fan out through the parallel engine. Building a scale prepares
// its oracle search (scale.prepare) once, and every task of the scale shares
// it. The search stage runs one task per (scale, benchmark, phase), the
// scale with the most placements (Search.Len) first: tasks are claimed in
// order, so
// the work left when the queue runs dry is a single phase of the smallest
// machine rather than a whole benchmark of the largest. A task takes the
// all-cores time from RunPhase and the oracle's from Search.Best, which
// solves the fixed point only for the placements whose lower bound can still
// beat the best time found, and returns the minimum a full RunPhaseSweep
// would, bit for bit. Each task writes only its own slot; the slots of a
// cell are then added up serially in phase order — the additions a per-cell
// loop would make, in its order — and the machine model is pure, so the
// gains are bit-identical at any GOMAXPROCS.
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
		return scales[heaviestFirst[i]].search.Len() > scales[heaviestFirst[j]].search.Len()
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
		all := t.sc.m.RunPhase(t.phase, t.idio, t.sc.all).TimeSec
		best, _ := t.sc.search.Best(t.phase, t.idio)
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
