package machine

import (
	"testing"

	"github.com/greenhpc/actor/internal/npb"
	"github.com/greenhpc/actor/internal/topology"
)

// BenchmarkSweepLanes drives the bound lane kernel (scalar or AVX2, see
// lanes.go) through 16 fixed-point iteration steps over a synthetic block
// of 64 lanes, folding the final per-lane contributions into a checksum so
// the work cannot be optimized away.
func BenchmarkSweepLanes(b *testing.B) {
	const n, iters = 64, 16
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		ls := &laneState{}
		for j := 0; j < n; j++ {
			f := 1 + float64(j%7)/7
			ls.append(0.4+0.1*f, 180*f, 0.004*f, 1.0/4, f, 1, 0)
		}
		ls.sizeDerived()
		for j := range ls.bus {
			ls.bus[j] = 1 + float64(j%5)/4
		}
		for it := 0; it < iters; it++ {
			advanceLanes(ls, 0.65, 1.5, 2.1e9, 64)
			for j := range ls.bus {
				ls.bus[j] = 0.5*ls.bus[j] + 0.5*(1+ls.contrib[j]/1e9)
			}
		}
		for _, c := range ls.contrib {
			sink += c
		}
	}
	_ = sink
}

// BenchmarkBestTimeHetero is the root BenchmarkRunPhaseSweepHetero's
// machine, placements and phase rotation through the oracle search the
// scaling studies run (Search, prepared once): ns/placement is per
// candidate, solved-pct the share of placement-phases it solved exactly
// rather than pruned by their lower bound.
func BenchmarkBestTimeHetero(b *testing.B) {
	topo, err := topology.ParseDesc("16x4+32x2:little")
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(topo)
	if err != nil {
		b.Fatal(err)
	}
	placements := topology.BalancedPlacements(topo)
	bench, _ := npb.ByName("SP")
	s := NewSearch(m, placements)
	s.Best(&bench.Phases[0], bench.Idiosyncrasy) // warm the scratch
	solved0 := searchSolved.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Best(&bench.Phases[i%len(bench.Phases)], bench.Idiosyncrasy)
	}
	b.StopTimer()
	n := float64(b.N * len(placements))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/placement")
	b.ReportMetric(100*float64(searchSolved.Load()-solved0)/n, "solved-pct")
}
