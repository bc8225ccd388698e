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
	noisy := truth.WithNoise(noise.New(7), 0.05, 0.1)
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
	noisy := m.WithNoise(noise.New(7), 0.05, 0.1)
	if r := noisy.RunPhase(&p, 0.1, cfg); r.TimeSec == r1.TimeSec {
		t.Fatal("noisy machine applied no noise")
	}
	if r2 := m.RunPhase(&p, 0.1, cfg); !resultsBitIdentical(r1, r2) {
		t.Error("perturbing a served copy changed the memoised entry")
	}
}

func TestMemoSetParamsInvalidates(t *testing.T) {
	m := newMachine(t).WithMemo()
	p := testPhase()
	cfg, _ := topology.ConfigByName("4")

	before := m.RunPhase(&p, 0.1, cfg) // miss: fills the cache

	slow := m.Params()
	slow.MemLatencyCycles *= 4
	m.SetParams(slow)
	after := m.RunPhase(&p, 0.1, cfg)
	if memoEquivalent(after.TimeSec, before.TimeSec) {
		t.Error("params change served a stale memoised response")
	}
	if after.TimeSec <= before.TimeSec {
		t.Errorf("4× memory latency did not slow the phase: %g vs %g", after.TimeSec, before.TimeSec)
	}
	if _, misses := m.MemoStats(); misses != 2 {
		t.Errorf("misses = %d, want 2 (one per params epoch)", misses)
	}

	// Restoring the old values under a new epoch must still recompute —
	// the key carries the epoch, not the parameter values — and the result
	// must equal the original computation.
	orig := slow
	orig.MemLatencyCycles /= 4
	m.SetParams(orig)
	restored := m.RunPhase(&p, 0.1, cfg)
	if !memoEquivalent(restored.TimeSec, before.TimeSec) {
		t.Error("recomputation under restored params diverged from the original")
	}
	if _, misses := m.MemoStats(); misses != 3 {
		t.Errorf("misses = %d, want 3", misses)
	}
}

func TestMemoSetParamsOnDerivedMachinesCannotCollide(t *testing.T) {
	a := newMachine(t).WithMemo()
	b := a.WithFrequency(1) // shares a's memo
	p := testPhase()
	cfg, _ := topology.ConfigByName("4")

	fast := a.Params()
	fast.MemLatencyCycles /= 2
	slow := a.Params()
	slow.MemLatencyCycles *= 2
	a.SetParams(fast)
	b.SetParams(slow) // epochs come from the shared memo: must differ from a's

	ra := a.RunPhase(&p, 0.1, cfg)
	rb := b.RunPhase(&p, 0.1, cfg)
	if memoEquivalent(ra.TimeSec, rb.TimeSec) {
		t.Error("derived machines with diverged Params shared a memo entry (epoch collision)")
	}
	if rb.TimeSec <= ra.TimeSec {
		t.Errorf("2× vs 0.5× memory latency ordering wrong: %g vs %g", rb.TimeSec, ra.TimeSec)
	}
}

func TestMemoSetParamsBeforeWithMemoStaysInvalidatable(t *testing.T) {
	m := newMachine(t)
	p := testPhase()
	cfg, _ := topology.ConfigByName("4")

	pre := m.Params()
	pre.MemLatencyCycles /= 2
	m.SetParams(pre) // advances the epoch before any memo exists

	mm := m.WithMemo()
	before := mm.RunPhase(&p, 0.1, cfg) // caches under the pre-memo epoch

	slow := mm.Params()
	slow.MemLatencyCycles *= 8
	mm.SetParams(slow) // the fresh memo's counter must not re-issue that epoch
	after := mm.RunPhase(&p, 0.1, cfg)
	if memoEquivalent(after.TimeSec, before.TimeSec) {
		t.Error("SetParams after late memoisation served a stale response (epoch re-issued)")
	}
}

// memoEquivalent reports whether two float64s are identical including NaN
// (cached results must be bit-identical).
func memoEquivalent(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}
