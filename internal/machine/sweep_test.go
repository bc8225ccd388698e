package machine

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// resultsBitIdentical compares two Results field by field, treating NaN as
// equal to NaN (the sweep contract is bit-identity, not tolerance).
func resultsBitIdentical(a, b Result) bool {
	if !memoEquivalent(a.TimeSec, b.TimeSec) ||
		!memoEquivalent(a.WallCycles, b.WallCycles) ||
		!memoEquivalent(a.AggIPC, b.AggIPC) {
		return false
	}
	for e := range a.Counts {
		if !memoEquivalent(a.Counts[e], b.Counts[e]) {
			return false
		}
	}
	return memoEquivalent(a.Activity.TimeSec, b.Activity.TimeSec) &&
		a.Activity.ActiveCores == b.Activity.ActiveCores &&
		a.Activity.TotalCores == b.Activity.TotalCores &&
		memoEquivalent(a.Activity.AvgCoreIPC, b.Activity.AvgCoreIPC) &&
		memoEquivalent(a.Activity.PeakIPC, b.Activity.PeakIPC) &&
		memoEquivalent(a.Activity.AvgCoreUtil, b.Activity.AvgCoreUtil) &&
		memoEquivalent(a.Activity.BusUtilization, b.Activity.BusUtilization) &&
		memoEquivalent(a.Activity.BusBytes, b.Activity.BusBytes) &&
		memoEquivalent(a.Activity.L2AccessesPerSec, b.Activity.L2AccessesPerSec) &&
		memoEquivalent(a.Activity.FreqScale, b.Activity.FreqScale)
}

// sweepMachines builds the (memoised?, noisy?) variants under test. Noisy
// machines for the sweep and the reference loop are built with separate but
// identically seeded sources, so both consume the same stream positions.
func sweepMachines(t *testing.T, topo *topology.Topology, memoise, noisy bool) (sweep, loop *Machine) {
	t.Helper()
	build := func() *Machine {
		m, err := New(topo)
		if err != nil {
			t.Fatal(err)
		}
		if memoise {
			m = m.WithMemo()
		}
		if noisy {
			m = m.WithNoise(noise.New(1234), 0.03, 0.12)
		}
		return m
	}
	return build(), build()
}

// TestRunPhaseSweepMatchesSequentialRunPhase is the sweep engine's ground
// contract: for every topology, phase shape, memo state and noise state,
// RunPhaseSweep over a placement set is bit-identical — including the
// order measurement-noise draws are consumed in — to calling RunPhase once
// per placement in slice order.
func TestRunPhaseSweepMatchesSequentialRunPhase(t *testing.T) {
	topos := []*topology.Topology{
		topology.QuadCoreXeon(),
		topology.Manycore(8, 2),
		topology.Manycore(32, 2),
		topology.Manycore(16, 4),
	}
	phases := []workload.PhaseProfile{testPhase()}
	bound := testPhase()
	bound.Name, bound.Fingerprint = "membound", "T/membound"
	bound.WorkingSetBytes = 48 * 1024 * 1024
	bound.L1MissRate = 0.4
	bound.MLP = 1.2
	phases = append(phases, bound)
	anon := testPhase()
	anon.Fingerprint = "" // bypasses the memo even when one is enabled
	phases = append(phases, anon)

	for _, topo := range topos {
		placements := topology.EnumeratePlacements(topo)
		for _, memoise := range []bool{false, true} {
			for _, noisy := range []bool{false, true} {
				sweepM, loopM := sweepMachines(t, topo, memoise, noisy)
				for pi := range phases {
					p := phases[pi]
					dst := make([]Result, len(placements))
					sweepM.RunPhaseSweep(&p, 0.12, placements, dst)
					for i, pl := range placements {
						want := loopM.RunPhase(&p, 0.12, pl)
						if !resultsBitIdentical(dst[i], want) {
							t.Fatalf("topo %s memo=%v noisy=%v phase %s placement %s: sweep diverges from sequential RunPhase",
								topo.Name, memoise, noisy, p.Name, pl)
						}
					}
				}
			}
		}
	}
}

// TestRunPhaseSweepPropertyRandomPhases fuzzes phase shapes through the
// sweep-vs-loop equivalence on the 32-core synthetic topology, where the
// per-group-load vectorisation actually collapses work.
func TestRunPhaseSweepPropertyRandomPhases(t *testing.T) {
	topo := topology.Manycore(32, 2)
	placements := topology.EnumeratePlacements(topo)
	sweepM, loopM := sweepMachines(t, topo, true, false)
	dst := make([]Result, len(placements))
	f := func(ipcRaw, memRaw, missRaw, wsRaw, parRaw, shareRaw uint32) bool {
		p := testPhase()
		p.Fingerprint = "F/fuzz" // shared fingerprint: exercises memo reuse too
		p.BaseIPC = 0.5 + float64(ipcRaw%250)/100
		p.MemRefsPerInstr = float64(memRaw%60) / 100
		p.L1MissRate = float64(missRaw%50) / 100
		p.WorkingSetBytes = float64(wsRaw%16384) * 1024
		p.ParallelFraction = 0.5 + float64(parRaw%50)/100
		p.SharingFactor = float64(shareRaw%100) / 100
		idio := float64(ipcRaw%17) / 40
		sweepM.RunPhaseSweep(&p, idio, placements, dst)
		for i, pl := range placements {
			want := loopM.RunPhase(&p, idio, pl)
			if !resultsBitIdentical(dst[i], want) {
				return false
			}
			if math.IsNaN(dst[i].TimeSec) {
				return false
			}
			_ = pl
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestShardedMemoConcurrentSweeps hammers one shared memo from concurrent
// sweeps over overlapping placement sets (run under -race in CI): every
// goroutine must observe results bit-identical to an isolated sequential
// machine, regardless of who computes and who hits.
func TestShardedMemoConcurrentSweeps(t *testing.T) {
	topo := topology.Manycore(16, 2)
	placements := topology.EnumeratePlacements(topo)
	shared, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	shared = shared.WithMemo()
	ref, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}

	phases := make([]workload.PhaseProfile, 6)
	for i := range phases {
		phases[i] = testPhase()
		phases[i].Fingerprint = "RACE/" + string(rune('a'+i))
		phases[i].WorkingSetBytes = float64(1+i) * 1024 * 1024
	}
	want := make([][]Result, len(phases))
	for pi := range phases {
		want[pi] = make([]Result, len(placements))
		ref.RunPhaseSweep(&phases[pi], 0.1, placements, want[pi])
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]Result, len(placements))
			for round := 0; round < 20; round++ {
				pi := (w + round) % len(phases)
				shared.RunPhaseSweep(&phases[pi], 0.1, placements, dst)
				for i := range placements {
					if !resultsBitIdentical(dst[i], want[pi][i]) {
						errs <- "concurrent sweep diverged from sequential reference"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	hits, misses := shared.MemoStats()
	distinct := uint64(len(phases) * len(placements))
	// Racing goroutines may each compute a not-yet-published entry, so the
	// miss count can exceed the distinct key count — but publication
	// dedupes, so it is bounded by one compute per worker per key.
	if misses < distinct || misses > distinct*workers {
		t.Errorf("misses = %d, want within [%d, %d]", misses, distinct, distinct*workers)
	}
	if hits == 0 {
		t.Error("no memo hits under concurrent sweeps")
	}
}
