package actor

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestPredictMemoRoundTrip(t *testing.T) {
	m := newBodyMemo()
	key := []byte("\x01\x00\x00\x00\x01\x00k")
	if got := m.get(key); got != nil {
		t.Fatalf("empty memo returned %q", got)
	}
	m.put(key, []byte("body"))
	if got := m.get(key); !bytes.Equal(got, []byte("body")) {
		t.Fatalf("get = %q, want body", got)
	}
	// The installed entry owns copies: mutating the caller's slices must not
	// reach the cache (both are pooled scratch in the server).
	key2 := append([]byte(nil), key...)
	key[0] = 0xff
	if got := m.get(key2); !bytes.Equal(got, []byte("body")) {
		t.Fatalf("entry aliased the caller's key: get = %q", got)
	}
}

func TestPredictMemoBounded(t *testing.T) {
	m := newBodyMemo()
	total := memoSets * memoWays
	for i := 0; i < 4*total; i++ {
		m.put([]byte(fmt.Sprintf("key-%d", i)), []byte("r"))
	}
	if n := m.entries(); n > total {
		t.Fatalf("memo holds %d entries, capacity is %d", n, total)
	}
	// Oversized responses are never cached.
	big := make([]byte, memoMaxResp+1)
	m.put([]byte("big"), big)
	if m.get([]byte("big")) != nil {
		t.Fatal("oversized response was cached")
	}
}

// TestPredictMemoLRU fills one set and checks that the least-recently-used
// way is the one evicted.
func TestPredictMemoLRU(t *testing.T) {
	m := newBodyMemo()
	// Manufacture keys that all land in the same set.
	set := int(memoHash([]byte("seed")) & m.setMask)
	var keys [][]byte
	for i := 0; len(keys) < memoWays+1; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if int(memoHash(k)&m.setMask) == set {
			keys = append(keys, k)
		}
	}
	for _, k := range keys[:memoWays] {
		m.put(k, k)
	}
	// Touch every resident key except the first: it becomes the LRU victim.
	for _, k := range keys[1:memoWays] {
		if m.get(k) == nil {
			t.Fatalf("key %q missing before eviction", k)
		}
	}
	m.put(keys[memoWays], keys[memoWays])
	if m.get(keys[0]) != nil {
		t.Errorf("LRU key %q survived eviction", keys[0])
	}
	for _, k := range keys[1:] {
		if got := m.get(k); !bytes.Equal(got, k) {
			t.Errorf("key %q = %q after eviction, want itself", k, got)
		}
	}
}

// TestPredictMemoConcurrent hammers overlapping keys from many goroutines;
// run under -race this is the lock-free probe's data-race check. Every hit
// must return the exact body installed for that key.
func TestPredictMemoConcurrent(t *testing.T) {
	m := newBodyMemo()
	const goroutines = 8
	const keySpace = 64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := (g*31 + i) % keySpace
				key := []byte(fmt.Sprintf("key-%d", id))
				want := []byte(fmt.Sprintf("resp-%d", id))
				if got := m.get(key); got != nil && !bytes.Equal(got, want) {
					t.Errorf("key %q returned %q", key, got)
					return
				}
				m.put(key, want)
			}
		}(g)
	}
	wg.Wait()
}

// entries counts installed lines (O(sets*ways)).
func (m *bodyMemo) entries() int {
	n := 0
	for i := range m.lines {
		if m.lines[i].Load() != nil {
			n++
		}
	}
	return n
}
