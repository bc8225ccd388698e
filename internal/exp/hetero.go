package exp

// HeteroScaling extends FutureScaling to the heterogeneous machines the
// ROADMAP's north star asks about: big/little parts at 64–128 cores, built
// from compact topology descriptors (topology.ParseDesc). Where
// FutureScaling asks "how much does throttling gain as homogeneous core
// counts grow", HeteroScaling asks the sharper question "how much does
// *placement-aware* throttling gain when the cores are not interchangeable"
// — on a big/little part the all-cores baseline drags every phase onto the
// little cores, so the oracle's win combines thread-count throttling with
// class selection.

import (
	"fmt"
	"io"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/report"
	"github.com/greenhpc/actor/internal/topology"
)

// HeteroScenario names one synthetic machine by topology descriptor.
type HeteroScenario struct {
	// Name labels the scenario in reports.
	Name string
	// Desc is the compact topology descriptor (see topology.ParseDesc).
	Desc string
}

// DefaultHeteroScenarios spans 64 to 128 cores with a growing little-core
// share: a homogeneous 64-core baseline, then big/little mixes up to the
// 128-core part the ROADMAP names.
func DefaultHeteroScenarios() []HeteroScenario {
	return []HeteroScenario{
		{Name: "64 big", Desc: "16x4"},
		{Name: "48b+16L", Desc: "12x4+8x2:little"},
		{Name: "64b+32L", Desc: "16x4+16x2:little"},
		{Name: "64b+64L", Desc: "16x4+32x2:little"},
	}
}

// HeteroScalingResult quantifies the oracle throttling gain on each
// scenario machine.
type HeteroScalingResult struct {
	Scenarios []HeteroScenario
	// Cores and Placements map scenario name → machine size and candidate
	// count.
	Cores, Placements map[string]int
	// Gain[scenario][bench] is 1 − bestTime/allCoresTime with oracle
	// per-phase placements.
	Gain map[string]map[string]float64
}

// HeteroScaling evaluates the suite's benchmarks on the given scenarios
// (DefaultHeteroScenarios when nil). Candidates are the balanced placement
// space (topology.BalancedOccupancy): per-family thread counts spread
// evenly across each family's L2 groups — the schedules a runtime would
// actually choose, and the space that stays tractable at 128 cores where
// the full occupancy-multiset enumeration has millions of members.
//
// No placement list is built: each scenario's oracle search comes straight
// from the occupancies (machine.NewBalancedSearch), and the only placement
// listed core by core is the all-cores one (topology.BalancedAllCores),
// which RunPhase times as the baseline. The study runs on the shared
// scaling driver (scalingGains): one task per (scenario, benchmark, phase),
// bit-identical at any GOMAXPROCS.
func (s *Suite) HeteroScaling(scenarios []HeteroScenario) (*HeteroScalingResult, error) {
	if scenarios == nil {
		scenarios = DefaultHeteroScenarios()
	}
	scales := make([]scale, len(scenarios))
	for si, sc := range scenarios {
		scales[si] = scale{
			name: fmt.Sprintf("hetero scenario %q", sc.Name),
			topo: func() (*topology.Topology, error) { return topology.ParseDesc(sc.Desc) },
			prepare: func(m *machine.Machine) (*machine.Search, topology.Placement) {
				return machine.NewBalancedSearch(m), topology.BalancedAllCores(m.Topo)
			},
		}
	}
	gains, err := scalingGains(scales, s.Benches)
	if err != nil {
		return nil, err
	}
	res := &HeteroScalingResult{
		Scenarios:  scenarios,
		Cores:      map[string]int{},
		Placements: map[string]int{},
		Gain:       map[string]map[string]float64{},
	}
	for si, sc := range scenarios {
		res.Cores[sc.Name] = scales[si].m.Topo.NumCores
		res.Placements[sc.Name] = scales[si].search.Len()
		row := map[string]float64{}
		for bi, b := range s.Benches {
			row[b.Name] = gains[si][bi]
		}
		res.Gain[sc.Name] = row
	}
	return res, nil
}

// AverageGain returns the mean gain across the suite for a scenario.
func (r *HeteroScalingResult) AverageGain(scenario string) float64 {
	return meanGain(r.Gain[scenario])
}

// Render prints the hetero-scaling table.
func (r *HeteroScalingResult) Render(w io.Writer) {
	report.Section(w, "Extension: throttling opportunity on heterogeneous big/little machines")
	headers := []string{"scenario", "cores", "configs"}
	names := benchNames(r.Gain[r.Scenarios[0].Name])
	headers = append(headers, names...)
	headers = append(headers, "AVG")
	t := report.NewTable("oracle per-phase throttling gain vs all cores (time saved)", headers...)
	for _, sc := range r.Scenarios {
		cells := []string{sc.Name,
			fmt.Sprintf("%d", r.Cores[sc.Name]),
			fmt.Sprintf("%d", r.Placements[sc.Name])}
		for _, b := range names {
			cells = append(cells, fmt.Sprintf("%4.1f%%", 100*r.Gain[sc.Name][b]))
		}
		cells = append(cells, fmt.Sprintf("%4.1f%%", 100*r.AverageGain(sc.Name)))
		t.AddRow(cells...)
	}
	t.Render(w)
}
