package exp

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/parallel"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// cellLoopScale is one machine of the reference loop below.
type cellLoopScale struct {
	m          *machine.Machine
	placements []topology.Placement
}

// cellLoopGains is the loop both scaling studies ran before they shared
// scalingGains, kept as the reference the fan-out must reproduce: one task
// per (scale, benchmark) cell, each sweeping its phases in order into a
// freshly allocated row and accumulating the two sums as it goes.
func cellLoopGains(t *testing.T, scales []cellLoopScale, benches []*workload.Benchmark) [][]float64 {
	t.Helper()
	nb := len(benches)
	gains, err := parallel.Map(len(scales)*nb, func(i int) (float64, error) {
		sc, b := scales[i/nb], benches[i%nb]
		dst := make([]machine.Result, len(sc.placements))
		var tAll, tBest float64
		for pi := range b.Phases {
			sc.m.RunPhaseSweep(&b.Phases[pi], b.Idiosyncrasy, sc.placements, dst)
			ta := dst[len(dst)-1].TimeSec
			tb := ta
			for ri := range dst {
				if tt := dst[ri].TimeSec; tt < tb {
					tb = tt
				}
			}
			tAll += ta
			tBest += tb
		}
		return 1 - tBest/tAll, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, len(scales))
	for si := range out {
		out[si] = gains[si*nb : (si+1)*nb]
	}
	return out
}

func newCellLoopScale(t *testing.T, topo *topology.Topology, enumerate func(*topology.Topology) []topology.Placement) cellLoopScale {
	t.Helper()
	m, err := machine.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	return cellLoopScale{m, enumerate(topo)}
}

// TestScalingFanOutBitIdenticalToCellLoop: every gain of HeteroScaling and
// FutureScaling carries the bits the per-cell loop produces — at GOMAXPROCS
// 1, 2 and 8, and from two calls running at once (the studies share the
// pooled result rows and machine contexts; -race covers the sharing).
func TestScalingFanOutBitIdenticalToCellLoop(t *testing.T) {
	s := newFastSuite(t)
	type study struct {
		name string
		want [][]float64
		run  func() (gain func(si int, bench string) float64, err error)
	}
	hetero := func(name string, scenarios []HeteroScenario) study {
		scales := make([]cellLoopScale, len(scenarios))
		for si, sc := range scenarios {
			topo, err := topology.ParseDesc(sc.Desc)
			if err != nil {
				t.Fatal(err)
			}
			scales[si] = newCellLoopScale(t, topo, topology.BalancedPlacements)
		}
		return study{
			name: name,
			want: cellLoopGains(t, scales, s.Benches),
			run: func() (func(int, string) float64, error) {
				r, err := s.HeteroScaling(scenarios)
				if err != nil {
					return nil, err
				}
				return func(si int, bench string) float64 { return r.Gain[scenarios[si].Name][bench] }, nil
			},
		}
	}
	studies := []study{hetero("hetero/small", []HeteroScenario{
		{Name: "8 big", Desc: "2x4"},
		{Name: "8b+4L", Desc: "2x4+2x2:little"},
	})}
	if !testing.Short() {
		studies = append(studies, hetero("hetero/default", DefaultHeteroScenarios()))
	}
	futureCores := []int{4, 8, 16, 32}
	futureScales := make([]cellLoopScale, len(futureCores))
	for si, cores := range futureCores {
		futureScales[si] = newCellLoopScale(t, topology.Manycore(cores, 2), topology.EnumeratePlacements)
	}
	studies = append(studies, study{
		name: "future",
		want: cellLoopGains(t, futureScales, s.Benches),
		run: func() (func(int, string) float64, error) {
			r, err := s.FutureScaling()
			if err != nil {
				return nil, err
			}
			return func(si int, bench string) float64 { return r.Gain[futureCores[si]][bench] }, nil
		},
	})

	check := func(t *testing.T, st *study, leg string) {
		gain, err := st.run()
		if err != nil {
			t.Error(err)
			return
		}
		for si := range st.want {
			for bi, b := range s.Benches {
				if got, want := gain(si, b.Name), st.want[si][bi]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: scale %d %s gain %v (%016x), the cell loop gives %v (%016x)",
						leg, si, b.Name, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for i := range studies {
		st := &studies[i]
		t.Run(st.name, func(t *testing.T) {
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				check(t, st, fmt.Sprintf("GOMAXPROCS=%d", procs))
			}
			var wg sync.WaitGroup
			for c := 0; c < 2; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					check(t, st, "two concurrent calls")
				}()
			}
			wg.Wait()
		})
	}
}

// TestAverageGainIsDeterministic: both scaling results average a row in
// sorted benchmark order, the tables' column order, whatever order the map
// iterates in. The row's values make the order visible: 1 vanishes next to
// ±1e16.
func TestAverageGainIsDeterministic(t *testing.T) {
	row := map[string]float64{"a": 1e16, "b": 1, "c": -1e16, "d": 1, "e": 1, "f": 1}
	// In sorted order 1e16 + 1 rounds back to 1e16, cancels against -1e16,
	// and the three trailing 1s sum to 3.
	want := 3.0 / 6
	hetero := &HeteroScalingResult{Gain: map[string]map[string]float64{"s": row}}
	future := &FutureScalingResult{Gain: map[int]map[string]float64{8: row}}
	for i := 0; i < 200; i++ {
		if got := hetero.AverageGain("s"); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: HeteroScalingResult.AverageGain = %v, sorted-order mean %v", i, got, want)
		}
		if got := future.AverageGain(8); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: FutureScalingResult.AverageGain = %v, sorted-order mean %v", i, got, want)
		}
	}
}
