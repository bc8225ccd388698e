// Manycore: the paper predicts that scalability limits — and therefore the
// value of concurrency throttling — grow as core counts rise and the
// compute-to-cache ratio falls. This example builds 4- to 32-core machines
// from the descriptors "2x2" … "16x2" (topology.ParseDesc: dual-core L2
// groups, 1 MiB of L2 per core, a bus that grows sublinearly), runs a
// bandwidth-bound and a compute-bound workload on every distinct placement,
// and shows the gap between "use all cores" and the best placement widening
// with scale — while the number of candidate configurations grows, which is
// the paper's argument for prediction over empirical search.
//
//	go run ./examples/manycore
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/report"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

func phases() []workload.PhaseProfile {
	return []workload.PhaseProfile{
		{
			Name: "stream", Fingerprint: "MANY/stream",
			Instructions: 5e8, BaseIPC: 1.0,
			MemRefsPerInstr: 0.55, LoadFraction: 0.6, L1MissRate: 0.4,
			WorkingSetBytes: 3 << 20, SharingFactor: 0.05, LocalityExp: 1.1,
			ColdMissRate: 0.3, MLP: 10, ParallelFraction: 0.995,
			SyncCycles: 5e5, BranchRate: 0.05, BranchMissRate: 0.01,
			TLBMissRate: 0.002, ChunkGranularity: 256, PrefetchFriendly: 0.8,
			StoreBandwidthBoost: 0.9,
		},
		{
			Name: "dense", Fingerprint: "MANY/dense",
			Instructions: 5e8, BaseIPC: 1.8,
			MemRefsPerInstr: 0.3, LoadFraction: 0.65, L1MissRate: 0.05,
			WorkingSetBytes: 1 << 20, SharingFactor: 0.3, LocalityExp: 1,
			ColdMissRate: 0.1, MLP: 2.5, ParallelFraction: 0.998,
			SyncCycles: 4e5, BranchRate: 0.08, BranchMissRate: 0.02,
			TLBMissRate: 0.0005, ChunkGranularity: 256, PrefetchFriendly: 0.5,
		},
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run sweeps both phases over every placement of each machine and writes the
// table and the closing note to w.
func run(w io.Writer) error {
	t := report.NewTable("throttling value vs core count",
		"cores", "phase", "configs", "all-cores (s)", "best (s)", "best placement", "gain")
	for _, cores := range []int{4, 8, 16, 32} {
		topo, err := topology.ParseDesc(fmt.Sprintf("%dx2", cores/2))
		if err != nil {
			return err
		}
		m, err := machine.New(topo)
		if err != nil {
			return err
		}
		placements := topology.EnumeratePlacements(topo)
		for _, p := range phases() {
			p := p
			all := placements[len(placements)-1] // all cores
			tAll := m.RunPhase(&p, 0, all).TimeSec
			bestT, bestName := tAll, all.Name
			for _, pl := range placements {
				tt := m.RunPhase(&p, 0, pl).TimeSec
				if tt < bestT {
					bestT, bestName = tt, pl.Name
				}
			}
			t.AddRow(
				fmt.Sprintf("%d", cores), p.Name,
				fmt.Sprintf("%d", len(placements)),
				fmt.Sprintf("%.3f", tAll),
				fmt.Sprintf("%.3f", bestT),
				bestName,
				fmt.Sprintf("%.1f%%", 100*(1-bestT/tAll)),
			)
		}
	}
	t.Render(w)
	fmt.Fprintln(w, "\nNote how the candidate-configuration count grows with cores:")
	fmt.Fprintln(w, "empirical search must probe each one, while ACTOR predicts from")
	fmt.Fprintln(w, "one sampling period — the paper's scaling argument (Section IV-B).")
	return nil
}
