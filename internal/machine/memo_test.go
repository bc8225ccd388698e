package machine

import (
	"math"
	"sync"
	"testing"

	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/topology"
)

func TestMemoServesIdenticalResults(t *testing.T) {
	plain := newMachine(t)
	memod := plain.WithMemo()
	p := testPhase()
	cfg, _ := topology.ConfigByName("2a")

	want := plain.RunPhase(&p, 0.1, cfg)
	first := memod.RunPhase(&p, 0.1, cfg)  // miss: computes + fills
	second := memod.RunPhase(&p, 0.1, cfg) // hit: served from cache
	for name, got := range map[string]Result{"first": first, "second": second} {
		if !memoEquivalent(got.TimeSec, want.TimeSec) ||
			!memoEquivalent(got.AggIPC, want.AggIPC) ||
			got.Counts != want.Counts {
			t.Errorf("%s memoised result differs from direct computation", name)
		}
	}
	if hits, misses := memod.MemoStats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if plainHits, _ := plain.MemoStats(); plainHits != 0 {
		t.Error("memo leaked into the non-memoised machine")
	}
}

func TestMemoKeyDiscriminates(t *testing.T) {
	m := newMachine(t).WithMemo()
	p := testPhase()
	cfg2a, _ := topology.ConfigByName("2a")
	cfg2b, _ := topology.ConfigByName("2b")

	a := m.RunPhase(&p, 0.1, cfg2a)
	if b := m.RunPhase(&p, 0.1, cfg2b); a.TimeSec == b.TimeSec {
		t.Error("different placements memoised to the same result")
	}
	if c := m.RunPhase(&p, 0.3, cfg2a); a.TimeSec == c.TimeSec {
		t.Error("different idiosyncrasy memoised to the same result")
	}
	if d := m.WithFrequency(0.5).RunPhase(&p, 0.1, cfg2a); a.TimeSec == d.TimeSec {
		t.Error("different frequency memoised to the same result")
	}
}

func TestMemoSharedWithNoiseForkKeepsVariance(t *testing.T) {
	truth := newMachine(t).WithMemo()
	noisy := truth.WithNoise(noise.New(7))
	p := testPhase()
	cfg, _ := topology.ConfigByName("4")

	base := truth.RunPhase(&p, 0.1, cfg)
	r1 := noisy.RunPhase(&p, 0.1, cfg)
	r2 := noisy.RunPhase(&p, 0.1, cfg)
	if r1.TimeSec == r2.TimeSec {
		t.Error("noisy runs served identical (unperturbed?) times from the memo")
	}
	if r1.TimeSec == base.TimeSec {
		t.Error("noise not applied on top of memoised result")
	}
	if hits, misses := truth.MemoStats(); hits != 2 || misses != 1 {
		t.Errorf("noisy fork did not share the memo: %d hits / %d misses", hits, misses)
	}
}

func TestMemoConcurrentAccess(t *testing.T) {
	m := newMachine(t).WithMemo()
	p := testPhase()
	cfgs := topology.PaperConfigs()
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = m.RunPhase(&p, 0.1, cfg)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, cfg := range cfgs {
				if got := m.RunPhase(&p, 0.1, cfg); got.TimeSec != want[i].TimeSec {
					t.Errorf("concurrent lookup for %s diverged", cfg.Name)
				}
			}
		}()
	}
	wg.Wait()
}

// TestMemoHitAllocatesNothing pins the zero-allocation hit contract, and
// that a served Result is a value copy: measurement noise applied to one
// served copy never reaches the stored entry.
func TestMemoHitAllocatesNothing(t *testing.T) {
	m := newMachine(t).WithMemo()
	p := testPhase()
	cfg, _ := topology.ConfigByName("4")
	r1 := m.RunPhase(&p, 0.1, cfg) // miss: fills the cache
	if allocs := testing.AllocsPerRun(100, func() {
		m.RunPhase(&p, 0.1, cfg)
	}); allocs != 0 {
		t.Errorf("memoised RunPhase hit allocates %.1f objects/op, want 0", allocs)
	}
	noisy := m.WithNoise(noise.New(7))
	if r := noisy.RunPhase(&p, 0.1, cfg); r.TimeSec == r1.TimeSec {
		t.Fatal("noisy machine applied no noise")
	}
	if r2 := m.RunPhase(&p, 0.1, cfg); !resultsBitIdentical(r1, r2) {
		t.Error("perturbing a served copy changed the memoised entry")
	}
}

// TestMemoHashCollisionNeverServesAnotherKey plants key A's entry under the
// hash of key B, as an equal-hash pair of distinct keys would leave it, and
// looks B up through RunPhase and RunPhaseSweep: every lookup of B is a
// counted miss, B's result is computed each time and never stored, and A
// keeps the hash and is still served with A's bits.
func TestMemoHashCollisionNeverServesAnotherKey(t *testing.T) {
	plain := newMachine(t)
	m := plain.WithMemo()
	p := testPhase()
	plA, _ := topology.ConfigByName("2a")
	plB, _ := topology.ConfigByName("2b")
	resA := plain.RunPhase(&p, 0.1, plA)
	wantB := plain.RunPhase(&p, 0.1, plB)
	if resultsBitIdentical(resA, wantB) {
		t.Fatal("A and B have the same result: the test could not tell them apart")
	}

	coresA, coresB := hashCores(plA.Cores), hashCores(plB.Cores)
	keyA := m.keyFor(&p, 0.1, &plA, coresA)
	hashB := memoHash(m.memoSeed(&p), 0.1, &plB, coresB)
	m.memo.Put(hashB, keyA, resA)

	for i := 0; i < 2; i++ {
		if got := m.RunPhase(&p, 0.1, plB); !resultsBitIdentical(got, wantB) {
			t.Fatalf("RunPhase %d of B was served another key's result", i)
		}
	}
	dst := make([]Result, 1)
	m.RunPhaseSweep(&p, 0.1, []topology.Placement{plB}, dst)
	if !resultsBitIdentical(dst[0], wantB) {
		t.Fatal("RunPhaseSweep of B was served another key's result")
	}
	if hits, misses := m.MemoStats(); hits != 0 || misses != 3 {
		t.Errorf("B's lookups: %d hits / %d misses, want 0/3", hits, misses)
	}

	got := m.memo.Get(hashB, &keyA)
	if got == nil || !resultsBitIdentical(*got, resA) {
		t.Fatal("the hash's first key lost its entry to B")
	}
	if hits, misses := m.MemoStats(); hits != 1 || misses != 3 {
		t.Errorf("after A's lookup: %d hits / %d misses, want 1/3", hits, misses)
	}
}

// TestMemoDerivedCopies: a WithParams copy never serves its source's memo
// entries and the source never serves the copy's, even when the params are
// equal; WithNoise and WithFrequency copies share the source's memo both
// ways.
func TestMemoDerivedCopies(t *testing.T) {
	p := testPhase()
	cfg, _ := topology.ConfigByName("4")
	slow := DefaultParams()
	slow.MemLatencyCycles *= 4
	rows := []struct {
		name   string
		derive func(*Machine) *Machine
		shared bool
	}{
		{"WithParams", func(m *Machine) *Machine { return m.WithParams(slow) }, false},
		{"WithParams/equal", func(m *Machine) *Machine { return m.WithParams(m.Params()) }, false},
		{"WithNoise", func(m *Machine) *Machine { return m.WithNoise(noise.New(7)) }, true},
		{"WithFrequency", func(m *Machine) *Machine { return m.WithFrequency(1) }, true},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			src := newMachine(t).WithMemo()
			first := src.RunPhase(&p, 0.1, cfg) // miss: fills the source's memo
			cp := r.derive(src)
			if src.Params() != DefaultParams() {
				t.Fatal("deriving a copy changed the source's params")
			}
			got := cp.RunPhase(&p, 0.1, cfg) // the source's entry, if shared
			cp.RunPhase(&p, 0.3, cfg)        // a new entry, computed by the copy
			src.RunPhase(&p, 0.3, cfg)       // the copy's entry, if shared
			wantHits := uint64(0)
			if r.shared {
				wantHits = 2
			}
			for name, m := range map[string]*Machine{"source": src, "copy": cp} {
				if hits, misses := m.MemoStats(); hits != wantHits || misses != 2 {
					t.Errorf("%s memo: %d hits / %d misses, want %d / 2", name, hits, misses, wantHits)
				}
			}
			switch r.name {
			case "WithParams":
				if got.TimeSec <= first.TimeSec {
					t.Errorf("4× memory latency did not slow the phase: %g vs %g", got.TimeSec, first.TimeSec)
				}
			case "WithParams/equal", "WithFrequency":
				if !resultsBitIdentical(got, first) {
					t.Error("copy's result differs from the source's")
				}
			}
		})
	}
	if hits, misses := newMachine(t).WithParams(slow).MemoStats(); hits != 0 || misses != 0 {
		t.Error("WithParams gave an unmemoised machine a memo")
	}
}

// TestMemoSetParamsInvalidates: a WithParams copy never serves a response
// memoised under its source's params, and copying back to the original
// params recomputes the original bits.
func TestMemoSetParamsInvalidates(t *testing.T) {
	m := newMachine(t).WithMemo()
	p := testPhase()
	cfg, _ := topology.ConfigByName("4")

	before := m.RunPhase(&p, 0.1, cfg) // miss: fills the cache

	slow := m.Params()
	slow.MemLatencyCycles *= 4
	sm := m.WithParams(slow)
	after := sm.RunPhase(&p, 0.1, cfg)
	if memoEquivalent(after.TimeSec, before.TimeSec) {
		t.Error("params change served a stale memoised response")
	}
	if after.TimeSec <= before.TimeSec {
		t.Errorf("4× memory latency did not slow the phase: %g vs %g", after.TimeSec, before.TimeSec)
	}

	// Copying back to the old values still recomputes (the copy's memo is
	// fresh), and the result equals the original computation.
	restoredM := sm.WithParams(m.Params())
	restored := restoredM.RunPhase(&p, 0.1, cfg)
	if !resultsBitIdentical(restored, before) {
		t.Error("recomputation under restored params diverged from the original")
	}
	if hits, misses := restoredM.MemoStats(); hits != 0 || misses != 1 {
		t.Errorf("restored copy memo: %d hits / %d misses, want 0 / 1", hits, misses)
	}
}

// TestMemoSetParamsOnDerivedMachinesCannotCollide: two machines that share
// a memo (a WithFrequency fork) and then take different params through
// WithParams never serve each other's entries.
func TestMemoSetParamsOnDerivedMachinesCannotCollide(t *testing.T) {
	base := newMachine(t).WithMemo()
	p := testPhase()
	cfg, _ := topology.ConfigByName("4")

	fast := base.Params()
	fast.MemLatencyCycles /= 2
	slow := base.Params()
	slow.MemLatencyCycles *= 2
	a := base.WithParams(fast)
	b := base.WithFrequency(1).WithParams(slow)

	ra := a.RunPhase(&p, 0.1, cfg)
	rb := b.RunPhase(&p, 0.1, cfg)
	if memoEquivalent(ra.TimeSec, rb.TimeSec) {
		t.Error("derived machines with diverged Params shared a memo entry")
	}
	if rb.TimeSec <= ra.TimeSec {
		t.Errorf("2× vs 0.5× memory latency ordering wrong: %g vs %g", rb.TimeSec, ra.TimeSec)
	}
}

// TestMemoSetParamsBeforeWithMemoStaysInvalidatable: params set before a
// memo exists are the ones the memo caches under, and a later WithParams
// copy of the memoised machine does not serve them.
func TestMemoSetParamsBeforeWithMemoStaysInvalidatable(t *testing.T) {
	m := newMachine(t)
	p := testPhase()
	cfg, _ := topology.ConfigByName("4")

	pre := m.Params()
	pre.MemLatencyCycles /= 2
	mm := m.WithParams(pre).WithMemo()
	before := mm.RunPhase(&p, 0.1, cfg) // caches under the pre-memo params
	if want := m.WithParams(pre).RunPhase(&p, 0.1, cfg); !resultsBitIdentical(before, want) {
		t.Error("memoised machine computed under other params than it was built with")
	}

	slow := mm.Params()
	slow.MemLatencyCycles *= 8
	after := mm.WithParams(slow).RunPhase(&p, 0.1, cfg)
	if memoEquivalent(after.TimeSec, before.TimeSec) {
		t.Error("WithParams after late memoisation served a stale response")
	}
}

// memoEquivalent reports whether two float64s are identical including NaN
// (cached results must be bit-identical).
func memoEquivalent(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}
