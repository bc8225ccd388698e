package machine

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// mustDesc parses a topology descriptor or fails the test.
func mustDesc(t testing.TB, desc string) *topology.Topology {
	t.Helper()
	topo, err := topology.ParseDesc(desc)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// buildFuzzTopo derives a valid asymmetric big/little topology from fuzz
// bytes: 1–3 big groups of 1–3 cores plus 0–2 little groups of 1–2 cores
// with fuzzed class multipliers. The multipliers are written with the
// shortest repr that round-trips, so the descriptor carries their exact bits.
func buildFuzzTopo(t *testing.T, bigGroups, bigSize, littleGroups, littleSize, freqRaw, cpiRaw uint8) *topology.Topology {
	t.Helper()
	desc := fmt.Sprintf("%dx%d", int(bigGroups%3)+1, int(bigSize%3)+1)
	if lg := int(littleGroups % 3); lg > 0 {
		freq := 0.3 + float64(freqRaw%70)/100 // 0.30–0.99
		cpi := 1 + float64(cpiRaw%100)/100    // 1.00–1.99
		desc += fmt.Sprintf("+%dx%d:little(%s,%s)", lg, int(littleSize%2)+1,
			strconv.FormatFloat(freq, 'g', -1, 64), strconv.FormatFloat(cpi, 'g', -1, 64))
	}
	return mustDesc(t, desc)
}

// TestHeteroSweepMatchesRunPhaseProperty is the satellite property test:
// for randomized asymmetric topologies (fuzzed group sizes and class
// multipliers) and fuzzed phase shapes, RunPhaseSweep over every enumerated
// placement is bit-identical to per-placement RunPhase — with and without
// the memo, exactly like the homogeneous ground contract.
func TestHeteroSweepMatchesRunPhaseProperty(t *testing.T) {
	f := func(bg, bs, lg, ls, fr, cr uint8, ipcRaw, wsRaw, missRaw uint32) bool {
		topo := buildFuzzTopo(t, bg, bs, lg, ls, fr, cr)
		placements := topology.EnumeratePlacements(topo)
		p := testPhase()
		p.Fingerprint = "HET/fuzz"
		p.BaseIPC = 0.5 + float64(ipcRaw%250)/100
		p.WorkingSetBytes = float64(wsRaw%16384) * 1024
		p.L1MissRate = float64(missRaw%50) / 100
		idio := float64(ipcRaw%17) / 40
		for _, memoise := range []bool{false, true} {
			sweepM, loopM := sweepMachines(t, topo, memoise, false)
			dst := make([]Result, len(placements))
			sweepM.RunPhaseSweep(&p, idio, placements, dst)
			for i, pl := range placements {
				if !resultsBitIdentical(dst[i], loopM.RunPhase(&p, idio, pl)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestHeteroClassesChangePerformance sanity-checks the class multipliers'
// direction: one thread on a little core is slower than one thread on a
// big core of the same machine, and a mixed placement lands in between the
// all-big and all-little extremes on total throughput.
func TestHeteroClassesChangePerformance(t *testing.T) {
	m, err := New(mustDesc(t, "1x2+1x2:little"))
	if err != nil {
		t.Fatal(err)
	}
	p := testPhase()
	big := topology.Placement{Name: "big1", Cores: []topology.CoreID{0}}
	little := topology.Placement{Name: "little1", Cores: []topology.CoreID{2}}
	tBig := m.RunPhase(&p, 0, big).TimeSec
	tLittle := m.RunPhase(&p, 0, little).TimeSec
	if tLittle <= tBig {
		t.Errorf("little core (%.3fs) not slower than big core (%.3fs)", tLittle, tBig)
	}
	// A little core at FreqMult f with CPIMult c can be at most 1/(f·c)
	// slower on compute-bound work plus memory effects; just require a
	// sane bound rather than an exact ratio.
	if tLittle > 6*tBig {
		t.Errorf("little core implausibly slow: %.3fs vs %.3fs", tLittle, tBig)
	}
}

// TestHeteroSMTSiblingsShareL2 pins the SMT representation: siblings are
// ordinary cores of the declaring group, so placing two threads on the two
// siblings of one physical core behaves like tightly coupled threads.
func TestHeteroSMTSiblingsShareL2(t *testing.T) {
	topo := mustDesc(t, "2x1:smt2(1,1.4,2)")
	m, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	p := testPhase()
	p.WorkingSetBytes = 6 * 1024 * 1024 // stress the shared L2
	siblings := topology.Placement{Name: "sib", Cores: []topology.CoreID{0, 1}}
	spread := topology.Placement{Name: "spread", Cores: []topology.CoreID{0, 2}}
	tSib := m.RunPhase(&p, 0, siblings).TimeSec
	tSpread := m.RunPhase(&p, 0, spread).TimeSec
	if tSib <= tSpread {
		t.Errorf("SMT siblings (%.3fs) not slower than spread threads (%.3fs) on a cache-bound phase", tSib, tSpread)
	}
}

// TestConcurrentHeteroSweeps is the satellite race test: concurrent sweeps
// over a shared memoised heterogeneous machine (run under -race in CI) must
// each observe results bit-identical to an isolated sequential machine.
func TestConcurrentHeteroSweeps(t *testing.T) {
	topo, err := topology.ParseDesc("4x4+4x2:little")
	if err != nil {
		t.Fatal(err)
	}
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

	phases := make([]workload.PhaseProfile, 4)
	for i := range phases {
		phases[i] = testPhase()
		phases[i].Fingerprint = "HETRACE/" + string(rune('a'+i))
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
			for round := 0; round < 10; round++ {
				pi := (w + round) % len(phases)
				shared.RunPhaseSweep(&phases[pi], 0.1, placements, dst)
				for i := range placements {
					if !resultsBitIdentical(dst[i], want[pi][i]) {
						errs <- "concurrent hetero sweep diverged from sequential reference"
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
	if hits, _ := shared.MemoStats(); hits == 0 {
		t.Error("no memo hits under concurrent hetero sweeps")
	}
}
