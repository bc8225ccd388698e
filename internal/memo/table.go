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

// Table is a concurrency-safe, grow-only map from K to V: a sharded,
// open-addressed hash table whose hot lookup is lock-free and
// allocation-free. Readers atomically load a shard's table pointer and
// linearly probe immutable entries published with atomic slot stores.
// Writers (misses only) serialise on a per-shard mutex and grow the shard's
// table copy-on-write, so a hit-heavy workload never contends on a lock
// after warm-up.
//
// The caller supplies the 64-bit hash of every key: the low bits select
// the shard and the remaining bits seed the in-shard probe sequence, so
// both ranges must be well mixed. Equal keys must hash equal; unequal keys
// with equal hashes are kept apart by comparing K.
//
// The zero Table is empty and ready to use. It must not be copied after
// first use.
type Table[K comparable, V any] struct {
	shards                [shardCount]shard[K, V]
	hits, misses, entries atomic.Uint64
}

// shardCount is a power of two.
const shardCount = 64

// shard is one lock domain of the table.
type shard[K comparable, V any] struct {
	mu    sync.Mutex // serialises writers; readers never take it
	count int        // live entries, guarded by mu
	slots atomic.Pointer[slotArray[K, V]]
}

// slotArray is an open-addressed slot array with linear probing. Slots are
// write-once: nil → *entry. Arrays are replaced wholesale on growth; a
// reader holding a superseded array still sees every entry that was
// published in it.
type slotArray[K comparable, V any] struct {
	mask  uint64
	slots []atomic.Pointer[entry[K, V]]
}

// entry is an immutable (key, value) pair.
type entry[K comparable, V any] struct {
	hash uint64
	key  K
	val  V
}

// find probes a for hash/key, stopping at the first empty slot.
func (a *slotArray[K, V]) find(hash uint64, key *K) *entry[K, V] {
	for i, probes := hash>>6, uint64(0); probes <= a.mask; i, probes = i+1, probes+1 {
		e := a.slots[i&a.mask].Load()
		if e == nil {
			return nil
		}
		if e.hash == hash && e.key == *key {
			return e
		}
	}
	return nil
}

// place stores an entry in the first free slot of its probe sequence. The
// caller holds the shard lock and has verified the key is absent.
func (a *slotArray[K, V]) place(e *entry[K, V]) {
	for i := e.hash >> 6; ; i++ {
		slot := &a.slots[i&a.mask]
		if slot.Load() == nil {
			slot.Store(e)
			return
		}
	}
}

// Get returns the canonical value stored under (hash, key), or nil, and
// counts the lookup as a hit or a miss. It takes no locks and performs no
// allocations. The pointee is shared with every other caller and must be
// treated as read-only.
func (t *Table[K, V]) Get(hash uint64, key *K) *V {
	if a := t.shards[hash&(shardCount-1)].slots.Load(); a != nil {
		if e := a.find(hash, key); e != nil {
			t.hits.Add(1)
			return &e.val
		}
	}
	t.misses.Add(1)
	return nil
}

// Put publishes val under (hash, key) and returns the canonical stored
// value: when a concurrent writer published the key first, that earlier
// value is returned and val is dropped — the memoised computation is
// deterministic, so either serves. The table keeps val forever and shares
// it with every hit.
func (t *Table[K, V]) Put(hash uint64, key K, val V) *V {
	sh := &t.shards[hash&(shardCount-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()

	a := sh.slots.Load()
	if a != nil {
		// Re-probe under the lock: we may have raced another writer.
		if e := a.find(hash, &key); e != nil {
			return &e.val
		}
	}
	// Grow at 50% load so probe chains stay short for the lock-free
	// readers. Growth publishes a fresh array; a reader mid-probe on the
	// old one still sees a consistent (if slightly stale) view, and a key
	// it misses there is resolved by the re-probe above when it Puts.
	if a == nil || uint64(sh.count+1)*2 > a.mask+1 {
		newSize := uint64(64)
		if a != nil {
			newSize = (a.mask + 1) * 2
		}
		na := &slotArray[K, V]{mask: newSize - 1, slots: make([]atomic.Pointer[entry[K, V]], newSize)}
		if a != nil {
			for i := range a.slots {
				if e := a.slots[i].Load(); e != nil {
					na.place(e)
				}
			}
		}
		sh.slots.Store(na)
		a = na
	}
	e := &entry[K, V]{hash: hash, key: key, val: val}
	a.place(e)
	sh.count++
	t.entries.Add(1)
	return &e.val
}

// Stats reports the lookups Get served (hits) and declined (misses) and the
// number of entries stored.
func (t *Table[K, V]) Stats() (hits, misses, entries uint64) {
	return t.hits.Load(), t.misses.Load(), t.entries.Load()
}
