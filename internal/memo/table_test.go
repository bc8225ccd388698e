package memo

import (
	"sync"
	"testing"
)

type key struct {
	a, b uint64
	s    string
}

type val struct {
	n  uint64
	xs []float64
}

// spread is a well-mixed hash for tests that want keys scattered over
// shards and slots.
func spread(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	return k ^ k>>33
}

// TestGetAfterPutAcrossGrowth fills one shard far past its initial
// capacity: every pointer handed out by Put must stay the canonical one
// through several copy-on-write doublings.
func TestGetAfterPutAcrossGrowth(t *testing.T) {
	var tb Table[key, val]
	const n = 1000 // 64 → 2048 slots: five doublings
	ptrs := make([]*val, n)
	for i := uint64(0); i < n; i++ {
		k := key{a: i, s: "k"}
		// Low six bits fixed: every key lands in shard 5.
		ptrs[i] = tb.Put(spread(i)<<6|5, k, val{n: i, xs: []float64{float64(i)}})
	}
	for i := uint64(0); i < n; i++ {
		k := key{a: i, s: "k"}
		got := tb.Get(spread(i)<<6|5, &k)
		if got == nil {
			t.Fatalf("key %d lost after growth", i)
		}
		if got != ptrs[i] || got.n != i || &got.xs[0] != &ptrs[i].xs[0] {
			t.Fatalf("key %d: Get returned %p (%+v), Put had returned %p", i, got, *got, ptrs[i])
		}
	}
	for sh := range tb.shards {
		if c := tb.shards[sh].count; (sh == 5) != (c == n) {
			t.Fatalf("shard %d holds %d entries", sh, c)
		}
	}
	if a := tb.shards[5].slots.Load(); uint64(n)*2 > a.mask+1 {
		t.Fatalf("shard at %d/%d slots exceeds 50%% load", n, a.mask+1)
	}
	absent := key{a: n, s: "k"}
	if tb.Get(spread(n)<<6|5, &absent) != nil {
		t.Fatal("Get invented an entry")
	}
}

// TestEqualHashDistinctKeys: the hash only routes; K decides identity.
func TestEqualHashDistinctKeys(t *testing.T) {
	var tb Table[key, val]
	keys := []key{{a: 1}, {a: 2}, {a: 1, b: 1}, {a: 1, s: "x"}, {a: 1, s: "y"}}
	const h = 0xdeadbeef
	for i, k := range keys {
		tb.Put(h, k, val{n: uint64(i)})
	}
	for i, k := range keys {
		if got := tb.Get(h, &k); got == nil || got.n != uint64(i) {
			t.Fatalf("key %+v under the shared hash resolved to %v, want n=%d", k, got, i)
		}
	}
	// The same K under another hash is a different probe: the contract is
	// that equal keys hash equal, so this is simply absent.
	if tb.Get(h+64, &keys[0]) != nil {
		t.Fatal("entry found under a hash it was not stored with")
	}
}

// TestPutKeepsFirstValue: a second Put of a stored key returns the stored
// value and drops its own.
func TestPutKeepsFirstValue(t *testing.T) {
	var tb Table[key, val]
	k := key{a: 7}
	first := tb.Put(42, k, val{n: 1})
	second := tb.Put(42, k, val{n: 2})
	if first != second || second.n != 1 {
		t.Fatalf("second Put returned %p (n=%d), want the first entry %p (n=1)", second, second.n, first)
	}
	if _, _, entries := tb.Stats(); entries != 1 {
		t.Fatalf("entries = %d after a duplicate Put, want 1", entries)
	}
}

// TestRacingPutOneCanonical: many goroutines Put one key at once and must
// all be handed the same pointer.
func TestRacingPutOneCanonical(t *testing.T) {
	for round := 0; round < 50; round++ {
		var tb Table[key, val]
		const writers = 8
		got := make([]*val, writers)
		var start, done sync.WaitGroup
		start.Add(1)
		for w := 0; w < writers; w++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				got[w] = tb.Put(99, key{a: 1}, val{n: uint64(w)})
			}()
		}
		start.Done()
		done.Wait()
		for w := 1; w < writers; w++ {
			if got[w] != got[0] {
				t.Fatalf("round %d: writer %d got %p, writer 0 got %p", round, w, got[w], got[0])
			}
		}
		if _, _, entries := tb.Stats(); entries != 1 {
			t.Fatalf("round %d: %d entries for one key", round, entries)
		}
	}
}

func TestCounters(t *testing.T) {
	var tb Table[key, val]
	check := func(wantHits, wantMisses, wantEntries uint64) {
		t.Helper()
		if h, m, e := tb.Stats(); h != wantHits || m != wantMisses || e != wantEntries {
			t.Fatalf("stats = %d hits / %d misses / %d entries, want %d/%d/%d",
				h, m, e, wantHits, wantMisses, wantEntries)
		}
	}
	check(0, 0, 0)
	k := key{a: 1}
	tb.Get(1, &k) // empty shard
	check(0, 1, 0)
	tb.Put(1, k, val{})
	check(0, 1, 1) // Put counts an entry, never a lookup
	tb.Get(1, &k)
	tb.Get(1, &k)
	check(2, 1, 1)
	other := key{a: 2}
	tb.Get(1, &other) // populated shard, absent key
	check(2, 2, 1)
}

// TestConcurrentReadersAndWriters mirrors machine's TestMemoConcurrentAccess
// one level down: writers fill overlapping key ranges (growing shards under
// the readers) while readers probe; every value read must be the one its
// key determines.
func TestConcurrentReadersAndWriters(t *testing.T) {
	var tb Table[key, val]
	const (
		writers = 4
		readers = 4
		keys    = 4000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each writer covers the whole range from a different start,
			// so every key is Put by all four.
			for n := uint64(0); n < keys; n++ {
				i := (n + uint64(w)*keys/writers) % keys
				if v := tb.Put(spread(i), key{a: i}, val{n: i * 3}); v.n != i*3 {
					t.Errorf("Put(%d) returned n=%d", i, v.n)
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for i := uint64(0); i < keys; i++ {
					k := key{a: i}
					if v := tb.Get(spread(i), &k); v != nil && v.n != i*3 {
						t.Errorf("Get(%d) = n=%d", i, v.n)
					}
				}
			}
		}()
	}
	wg.Wait()
	for i := uint64(0); i < keys; i++ {
		k := key{a: i}
		if v := tb.Get(spread(i), &k); v == nil || v.n != i*3 {
			t.Fatalf("key %d missing or wrong after the writers finished", i)
		}
	}
	if _, _, entries := tb.Stats(); entries != keys {
		t.Fatalf("entries = %d, want %d", entries, keys)
	}
}

func TestGetHitDoesNotAllocate(t *testing.T) {
	var tb Table[key, val]
	for i := uint64(0); i < 500; i++ {
		tb.Put(spread(i), key{a: i, s: "fingerprint"}, val{n: i})
	}
	k := key{a: 250, s: "fingerprint"}
	h := spread(250)
	if allocs := testing.AllocsPerRun(200, func() {
		if tb.Get(h, &k) == nil {
			t.Fatal("miss")
		}
	}); allocs != 0 {
		t.Errorf("Get hit allocates %.1f objects/op, want 0", allocs)
	}
}
