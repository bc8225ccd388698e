// Package memo provides the grow-only memo table the simulator's phase memo
// (internal/machine, its only user) is built on. It caches the result of a
// pure, deterministic computation keyed by a fixed-size comparable struct,
// shared by concurrent sweeps; entries are never evicted or overwritten, so
// whatever bounds the key space bounds the table.
package memo

import (
	"sync"
	"sync/atomic"
)

// Table is a concurrency-safe, grow-only map from K to V: a sync.Map from
// the caller's 64-bit hash of a key to an immutable entry holding the full
// key, which a hit compares before it serves the value. Hits take no lock
// and allocate nothing.
//
// Equal keys must hash equal. The first key stored under a hash keeps it:
// another key with the same hash misses on every Get and is never stored,
// so it is never served the first key's value.
//
// The zero Table is empty and ready to use. It must not be copied after
// first use.
type Table[K comparable, V any] struct {
	byHash                sync.Map // hash → *entry[K, V]
	hits, misses, entries atomic.Uint64
}

// entry is an immutable (key, value) pair.
type entry[K comparable, V any] struct {
	key K
	val V
}

// Get returns the value stored under hash for key, or nil when the hash is
// absent or held by another key, and counts the lookup as a hit or a miss.
// The pointee is shared with every other caller and is read-only.
func (t *Table[K, V]) Get(hash uint64, key *K) *V {
	if v, ok := t.byHash.Load(hash); ok {
		if e := v.(*entry[K, V]); e.key == *key {
			t.hits.Add(1)
			return &e.val
		}
	}
	t.misses.Add(1)
	return nil
}

// Put stores val under hash for key unless the hash is already held, and
// returns the value stored for key: the one a racing Put of the same key
// stored first (the computation is deterministic, so either serves), or
// nil when another key holds the hash and keeps it. Put counts an entry,
// never a lookup.
func (t *Table[K, V]) Put(hash uint64, key K, val V) *V {
	v, loaded := t.byHash.LoadOrStore(hash, &entry[K, V]{key: key, val: val})
	e := v.(*entry[K, V])
	if !loaded {
		t.entries.Add(1)
	} else if e.key != key {
		return nil
	}
	return &e.val
}

// Stats reports lookup hits and misses and the number of stored entries.
func (t *Table[K, V]) Stats() (hits, misses, entries uint64) {
	return t.hits.Load(), t.misses.Load(), t.entries.Load()
}
