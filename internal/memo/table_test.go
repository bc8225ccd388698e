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

// spread is a well-mixed hash (a bijection on uint64) for tests that want
// distinct keys under distinct hashes.
func spread(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	return k ^ k>>33
}

// TestEqualHashDistinctKeys: the first key stored under a hash keeps it;
// every other key under that hash is a counted miss, is never stored and
// is never served the first key's value.
func TestEqualHashDistinctKeys(t *testing.T) {
	var tb Table[key, val]
	keys := []key{{a: 1}, {a: 2}, {a: 1, b: 1}, {a: 1, s: "x"}, {a: 1, s: "y"}}
	const h = 0xdeadbeef
	first := tb.Put(h, keys[0], val{n: 0})
	for i, k := range keys[1:] {
		if got := tb.Put(h, k, val{n: uint64(i + 1)}); got != nil {
			t.Fatalf("Put of key %+v under a held hash returned %+v, want nil", k, *got)
		}
		if got := tb.Get(h, &k); got != nil {
			t.Fatalf("key %+v under the shared hash was served %+v", k, *got)
		}
	}
	if got := tb.Get(h, &keys[0]); got != first || got.n != 0 {
		t.Fatalf("the hash's first key resolved to %v, want its own entry %p (n=0)", got, first)
	}
	if hits, misses, entries := tb.Stats(); hits != 1 || misses != uint64(len(keys)-1) || entries != 1 {
		t.Fatalf("stats = %d hits / %d misses / %d entries, want 1/%d/1", hits, misses, entries, len(keys)-1)
	}
	// The same K under another hash is a different lookup: the contract is
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
	tb.Get(1, &k) // absent hash
	check(0, 1, 0)
	tb.Put(1, k, val{})
	check(0, 1, 1) // Put counts an entry, never a lookup
	tb.Get(1, &k)
	tb.Get(1, &k)
	check(2, 1, 1)
	other := key{a: 2}
	tb.Get(1, &other) // held hash, another key
	check(2, 2, 1)
}

// TestConcurrentReadersAndWriters mirrors machine's TestMemoConcurrentAccess
// one level down: writers fill overlapping key ranges while readers probe;
// every value read must be the one its key determines.
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
				if v := tb.Put(spread(i), key{a: i}, val{n: i * 3}); v == nil || v.n != i*3 {
					t.Errorf("Put(%d) returned %v", i, v)
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
