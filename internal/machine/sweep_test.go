package machine

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

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
			m = m.WithNoise(noise.New(1234))
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
		mustDesc(t, "4x2"),
		mustDesc(t, "16x2"),
		mustDesc(t, "4x4"),
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
	topo := mustDesc(t, "16x2")
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
// sweeps over overlapping placement sets, so racing misses store the same
// key (run under -race in CI): every goroutine must observe results
// bit-identical to an isolated sequential machine, regardless of who
// computes, who stores and who hits. The name is kept from the sharded
// table the memo used to be; scripts/determinism.sh runs the test by it.
func TestShardedMemoConcurrentSweeps(t *testing.T) {
	topo := mustDesc(t, "8x2")
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

// heteroSweepFixture is a 12-core big/little machine, its balanced
// placements, and a second placement set of the same length with different
// cores at every index (the same placements in reverse order).
func heteroSweepFixture(t *testing.T) (m *Machine, a, b []topology.Placement) {
	t.Helper()
	topo, err := topology.ParseDesc("2x4+2x2:little")
	if err != nil {
		t.Fatal(err)
	}
	if m, err = New(topo); err != nil {
		t.Fatal(err)
	}
	a = topology.BalancedPlacements(topo)
	b = make([]topology.Placement, len(a))
	for i := range a {
		b[i] = a[len(a)-1-i]
	}
	for i := range a {
		if slices.Equal(a[i].Cores, b[i].Cores) {
			t.Fatalf("fixture: index %d holds the same cores in both sets", i)
		}
	}
	return m, a, b
}

func checkSweepAgainstRunPhase(t *testing.T, what string, m *Machine, p *workload.PhaseProfile, idio float64, placements []topology.Placement, dst []Result) {
	t.Helper()
	for i, pl := range placements {
		if !resultsBitIdentical(dst[i], m.RunPhase(p, idio, pl)) {
			t.Fatalf("%s: sweep result %d (%s) diverges from RunPhase", what, i, pl)
		}
	}
}

// TestSweepPlansFollowPlacementContent sweeps one context three times: set A,
// then set B (different cores at every index), then set B again after one of
// its Cores slices is edited in place. Each sweep must equal RunPhase on the
// placements as they are at that moment, so no lane list resolved for an
// index in an earlier sweep may be replayed for whatever sits there later.
func TestSweepPlansFollowPlacementContent(t *testing.T) {
	m, setA, setB := heteroSweepFixture(t)
	p := testPhase()
	ctx := &phaseCtx{}
	dst := make([]Result, len(setA))

	m.sweepOn(ctx, &p, 0.1, setA, dst)
	checkSweepAgainstRunPhase(t, "set A", m, &p, 0.1, setA, dst)
	m.sweepOn(ctx, &p, 0.1, setB, dst)
	checkSweepAgainstRunPhase(t, "set B after set A", m, &p, 0.1, setB, dst)

	// Move one thread of one placement from a big core to a little core,
	// writing through the slice the context already resolved a plan for.
	var edit *topology.Placement
	for i := range setB {
		if pl := &setB[i]; pl.Threads() == 1 && m.classIdxOf(pl.Cores[0]) == 0 {
			edit = pl
			break
		}
	}
	if edit == nil {
		t.Fatal("fixture has no single-thread big-core placement")
	}
	before := m.RunPhase(&p, 0.1, *edit)
	edit.Cores[0] = topology.CoreID(m.Topo.NumCores - 1)
	if resultsBitIdentical(before, m.RunPhase(&p, 0.1, *edit)) {
		t.Fatal("fixture: the in-place edit does not change the placement's result")
	}
	m.sweepOn(ctx, &p, 0.1, setB, dst)
	checkSweepAgainstRunPhase(t, "set B after an in-place edit", m, &p, 0.1, setB, dst)
}

// TestMemoisedSweepStoresEachMissUnderItsOwnKey sweeps a cold memo and then
// re-reads every placement through RunPhase: each must be a hit (no new
// miss) and return what a memo-less machine computes for that placement.
func TestMemoisedSweepStoresEachMissUnderItsOwnKey(t *testing.T) {
	plain, placements, _ := heteroSweepFixture(t)
	memoised := plain.WithMemo()
	p := testPhase()
	dst := make([]Result, len(placements))
	memoised.RunPhaseSweep(&p, 0.1, placements, dst)
	if _, misses := memoised.MemoStats(); misses != uint64(len(placements)) {
		t.Fatalf("cold sweep of %d placements recorded %d misses", len(placements), misses)
	}
	for i, pl := range placements {
		got := memoised.RunPhase(&p, 0.1, pl)
		if want := plain.RunPhase(&p, 0.1, pl); !resultsBitIdentical(got, want) || !resultsBitIdentical(dst[i], want) {
			t.Fatalf("placement %d (%s): memo entry differs from the memo-less result", i, pl)
		}
	}
	if hits, misses := memoised.MemoStats(); misses != uint64(len(placements)) || hits != uint64(len(placements)) {
		t.Errorf("re-reading %d swept placements: %d hits, %d misses — an entry was stored under another placement's key",
			len(placements), hits, misses)
	}
}

// TestSweepContextReleasesPlacements: once a sweep returns, nothing reachable
// from its (pooled) context points into the caller's placements — the slice,
// any Cores array or any Name — so a long-lived context cannot pin a placement
// set the caller has dropped. Memoised and memo-less sweeps alike.
func TestSweepContextReleasesPlacements(t *testing.T) {
	plain, placements, _ := heteroSweepFixture(t)
	type span struct{ lo, hi uintptr }
	spanOf := func(p unsafe.Pointer, n uintptr) span { return span{uintptr(p), uintptr(p) + n} }
	callers := []span{spanOf(unsafe.Pointer(unsafe.SliceData(placements)), uintptr(len(placements))*unsafe.Sizeof(placements[0]))}
	for _, pl := range placements {
		callers = append(callers,
			spanOf(unsafe.Pointer(unsafe.SliceData(pl.Cores)), uintptr(len(pl.Cores))*unsafe.Sizeof(pl.Cores[0])),
			spanOf(unsafe.Pointer(unsafe.StringData(pl.Name)), uintptr(len(pl.Name))))
	}
	seen := map[uintptr]bool{}
	var walk func(path string, v reflect.Value)
	check := func(path string, p unsafe.Pointer) {
		for _, s := range callers {
			if a := uintptr(p); p != nil && a >= s.lo && a < s.hi {
				t.Fatalf("%s points into the caller's placements", path)
			}
		}
	}
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			check(path, v.UnsafePointer())
			walk(path, v.Elem())
		case reflect.Slice:
			check(path, v.UnsafePointer())
			full := v.Slice(0, v.Cap()) // truncated slices keep their elements alive
			for i := 0; i < full.Len(); i++ {
				walk(path+"[]", full.Index(i))
			}
		case reflect.String:
			check(path, unsafe.Pointer(unsafe.StringData(v.String())))
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(path+"[]", v.Index(i))
			}
		case reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			if !v.IsNil() {
				t.Fatalf("%s is a %s: teach this walk to follow it", path, v.Kind())
			}
		}
	}
	p := testPhase()
	dst := make([]Result, len(placements))
	for _, m := range []*Machine{plain, plain.WithMemo()} {
		ctx := &phaseCtx{}
		m.sweepOn(ctx, &p, 0.1, placements, dst)
		walk("ctx", reflect.ValueOf(ctx))
	}
}
