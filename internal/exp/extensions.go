package exp

// Extension studies beyond the paper's figures, motivated by its
// introduction and related-work discussion:
//
//   - DVFSStudy: concurrency throttling vs frequency scaling vs the joint
//     knob (the Li & Martínez comparison, Section II);
//   - FutureScaling: how the throttling opportunity grows on hypothetical
//     many-core machines (Sections I and III);
//   - CoScheduling: using the cores ACTOR frees for system software, "even
//     in cases where power consumption is not a main concern" (Section I).

import (
	"fmt"
	"io"
	"sort"

	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/dvfs"
	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/parallel"
	"github.com/greenhpc/actor/internal/report"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// DVFSResult holds the joint-knob study: normalised ED² per strategy.
type DVFSResult struct {
	Order []string
	// ED2 maps bench → strategy name → ED² normalised to all-cores@nominal.
	ED2 map[string]map[string]float64
}

// DVFSStudy runs the four-strategy DVFS comparison over the suite under
// the ED² objective with oracle decisions. Benchmarks are independent and
// fan out through the parallel engine; every strategy's per-phase searches
// run on the batched sweep path inside dvfs.Evaluator, and all tasks share
// the suite machine's phase-response memo (the joint space is a superset of
// both single-knob spaces, so the overlap is served from cache).
func (s *Suite) DVFSStudy() (*DVFSResult, error) {
	ev, err := dvfs.NewEvaluator(s.Truth, s.Power)
	if err != nil {
		return nil, err
	}
	rows, err := parallel.Map(len(s.Benches), func(i int) (map[string]float64, error) {
		b := s.Benches[i]
		study, err := ev.Study(b, s.Configs, dvfs.DefaultLevels(), dvfs.MinED2)
		if err != nil {
			return nil, fmt.Errorf("dvfs study %s: %w", b.Name, err)
		}
		base := study[dvfs.AllCoresNominal].ED2
		row := make(map[string]float64, 4)
		for _, st := range []dvfs.Strategy{dvfs.AllCoresNominal, dvfs.ConcurrencyOnly, dvfs.DVFSOnly, dvfs.Joint} {
			row[st.String()] = study[st].ED2 / base
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &DVFSResult{ED2: make(map[string]map[string]float64, len(s.Benches))}
	for bi, b := range s.Benches {
		res.ED2[b.Name] = rows[bi]
		res.Order = append(res.Order, b.Name)
	}
	return res, nil
}

// Render prints the normalised ED² table.
func (r *DVFSResult) Render(w io.Writer) {
	report.Section(w, "Extension: concurrency throttling vs DVFS vs joint (oracle, ED2 objective)")
	cols := []string{"all-cores@nominal", "concurrency-only", "dvfs-only", "joint"}
	t := report.NewTable("normalized ED2 (lower is better)", append([]string{"bench"}, cols...)...)
	sums := make([]float64, len(cols))
	for _, b := range r.Order {
		cells := []string{b}
		for i, c := range cols {
			v := r.ED2[b][c]
			sums[i] += v
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		t.AddRow(cells...)
	}
	avg := []string{"AVG"}
	for _, s := range sums {
		avg = append(avg, fmt.Sprintf("%.3f", s/float64(len(r.Order))))
	}
	t.AddRow(avg...)
	t.Render(w)
}

// FutureScalingResult quantifies the widening gap between "use all cores"
// and the best placement as core counts grow.
type FutureScalingResult struct {
	Cores []int
	// Gain[coreIdx][bench] is 1 − bestTime/allCoresTime for the whole
	// benchmark with oracle per-phase placements at each scale.
	Gain map[int]map[string]float64
	// Placements[coreIdx] is the size of the configuration space.
	Placements map[int]int
}

// FutureScaling evaluates the suite on synthetic 4-, 8-, 16- and 32-core
// machines: the paper's prediction that "future generation systems with
// many cores will be further prone to scalability limitations".
//
// Candidates are each machine's full canonical placement enumeration. The
// study runs on the shared scaling driver (scalingGains): one task per (core
// count, benchmark, phase), each sweeping the phase across the scale's whole
// placement set in one RunPhaseSweep call, bit-identical at any GOMAXPROCS.
func (s *Suite) FutureScaling() (*FutureScalingResult, error) {
	res := &FutureScalingResult{
		Cores:      []int{4, 8, 16, 32},
		Gain:       map[int]map[string]float64{},
		Placements: map[int]int{},
	}
	scales := make([]scale, len(res.Cores))
	for si, cores := range res.Cores {
		scales[si] = scale{
			name: fmt.Sprintf("future scaling at %d cores", cores),
			topo: func() (*topology.Topology, error) { return topology.ParseDesc(fmt.Sprintf("%dx2", cores/2)) },
			prepare: func(m *machine.Machine) (*machine.Search, topology.Placement) {
				pls := topology.EnumeratePlacements(m.Topo)
				return machine.NewSearch(m, pls), pls[len(pls)-1]
			},
		}
	}
	gains, err := scalingGains(scales, s.Benches)
	if err != nil {
		return nil, err
	}
	for si, cores := range res.Cores {
		res.Placements[cores] = scales[si].search.Len()
		row := map[string]float64{}
		for bi, b := range s.Benches {
			row[b.Name] = gains[si][bi]
		}
		res.Gain[cores] = row
	}
	return res, nil
}

// AverageGain returns the mean throttling gain across the suite at the
// given core count.
func (r *FutureScalingResult) AverageGain(cores int) float64 {
	return meanGain(r.Gain[cores])
}

// Render prints the scaling table.
func (r *FutureScalingResult) Render(w io.Writer) {
	report.Section(w, "Extension: throttling opportunity on future many-core machines")
	headers := []string{"cores", "configs"}
	names := benchNames(r.Gain[r.Cores[0]])
	headers = append(headers, names...)
	headers = append(headers, "AVG")
	t := report.NewTable("oracle per-phase throttling gain vs all cores (time saved)", headers...)
	for _, cores := range r.Cores {
		cells := []string{fmt.Sprintf("%d", cores), fmt.Sprintf("%d", r.Placements[cores])}
		for _, b := range names {
			cells = append(cells, fmt.Sprintf("%4.1f%%", 100*r.Gain[cores][b]))
		}
		cells = append(cells, fmt.Sprintf("%4.1f%%", 100*r.AverageGain(cores)))
		t.AddRow(cells...)
	}
	t.Render(w)
}

// CoSchedulingResult quantifies the paper's system-software motivation:
// cores freed by throttling can host background work, shrinking total
// makespan even when the foreground application alone gains little.
type CoSchedulingResult struct {
	Order []string
	// Default is the time-sliced makespan: benchmark on all cores, then
	// the background task on all cores.
	Default map[string]float64
	// Throttled is the co-scheduled makespan: benchmark on its best
	// placement while the background task runs on the freed cores.
	Throttled map[string]float64
}

// backgroundTask models a system daemon / virtualisation companion: a
// moderately memory-light service workload with a fixed work budget.
func backgroundTask() workload.PhaseProfile {
	return workload.PhaseProfile{
		Name: "sysdaemon", Fingerprint: "SYS/daemon",
		Instructions: 2e10, BaseIPC: 1.2,
		MemRefsPerInstr: 0.3, LoadFraction: 0.7, L1MissRate: 0.06,
		WorkingSetBytes: 512 * 1024, SharingFactor: 0.2, LocalityExp: 1,
		ColdMissRate: 0.1, MLP: 2, ParallelFraction: 0.95,
		SyncCycles: 1e5, BranchRate: 0.12, BranchMissRate: 0.03,
		TLBMissRate: 0.001, ChunkGranularity: 64, PrefetchFriendly: 0.5,
	}
}

// CoScheduling compares makespans with and without throttling-enabled
// co-scheduling, using oracle global placements for the foreground
// benchmark. Benchmarks fan out through the parallel engine into
// index-addressed slots; the oracle searches inside run on the batched
// sweep path (core.GlobalOptimal), and the daemon executions share the
// suite's phase memo across tasks.
func (s *Suite) CoScheduling() (*CoSchedulingResult, error) {
	daemon := backgroundTask()
	allCores := s.Configs[len(s.Configs)-1]
	type cell struct{ def, throttled float64 }
	cells, err := parallel.Map(len(s.Benches), func(i int) (cell, error) {
		b := s.Benches[i]
		best, times, err := core.GlobalOptimal(b, s.Truth, s.Configs)
		if err != nil {
			return cell{}, err
		}
		// Default: benchmark on all cores, then the daemon on all cores.
		daemonAll := s.Truth.RunPhase(&daemon, 0, allCores).TimeSec
		def := times[allCores.Name] + daemonAll

		// Throttled: benchmark on its best placement; daemon on the
		// complementary cores (if any). With no free cores the daemon
		// still runs afterwards.
		free := complement(s.Truth.Topo, best)
		tb := times[best.Name]
		if free.Threads() == 0 {
			return cell{def, tb + daemonAll}, nil
		}
		daemonFree := s.Truth.RunPhase(&daemon, 0, free).TimeSec
		makespan := tb
		if daemonFree > makespan {
			makespan = daemonFree
		}
		// Any daemon remainder after the benchmark finishes spreads to
		// all cores; approximate by the max above plus a small tail when
		// the daemon dominated (already covered by max).
		return cell{def, makespan}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &CoSchedulingResult{
		Default:   map[string]float64{},
		Throttled: map[string]float64{},
	}
	for bi, b := range s.Benches {
		res.Default[b.Name] = cells[bi].def
		res.Throttled[b.Name] = cells[bi].throttled
		res.Order = append(res.Order, b.Name)
	}
	return res, nil
}

// complement builds a placement on the cores the given placement leaves
// idle.
func complement(topo *topology.Topology, pl topology.Placement) topology.Placement {
	used := map[topology.CoreID]bool{}
	for _, c := range pl.Cores {
		used[c] = true
	}
	var free []topology.CoreID
	for c := topology.CoreID(0); int(c) < topo.NumCores; c++ {
		if !used[c] {
			free = append(free, c)
		}
	}
	return topology.Placement{Name: "free", Cores: free}
}

// Render prints the makespan comparison.
func (r *CoSchedulingResult) Render(w io.Writer) {
	report.Section(w, "Extension: co-scheduling system software on throttled-away cores")
	t := report.NewTable("makespan of benchmark + background daemon (seconds)",
		"bench", "time-sliced", "co-scheduled", "saved")
	var sumSaved float64
	for _, b := range r.Order {
		d, c := r.Default[b], r.Throttled[b]
		saved := 1 - c/d
		sumSaved += saved
		t.AddRow(b, fmt.Sprintf("%.1f", d), fmt.Sprintf("%.1f", c), fmt.Sprintf("%4.1f%%", 100*saved))
	}
	t.AddRow("AVG", "", "", fmt.Sprintf("%4.1f%%", 100*sumSaved/float64(len(r.Order))))
	t.Render(w)
}

// benchNames returns a gain row's benchmark names in sorted order: the
// column order of the scaling tables.
func benchNames(row map[string]float64) []string {
	names := make([]string, 0, len(row))
	for name := range row {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// meanGain returns the mean of a gain row, summed in benchNames order so the
// result does not depend on map iteration.
func meanGain(row map[string]float64) float64 {
	var sum float64
	for _, name := range benchNames(row) {
		sum += row[name]
	}
	return sum / float64(len(row))
}
