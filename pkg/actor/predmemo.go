package actor

import (
	"bytes"
	"sync"
	"sync/atomic"

	"github.com/greenhpc/actor/internal/fnv"
)

// bodyMemo is the server's bounded cache of fully encoded response
// bodies, one instance per route that caches: /v1/predict keyed by the
// canonical request (bank generation, phase, rate vector as sorted
// (event id, float64 bits) pairs) and /v1/eval keyed by the shard
// fingerprint. Two predict requests hit the same line iff they parse to
// the same rates, so a hit serves bytes that are provably what the miss
// path would have produced, which is why memo on/off byte-identity holds by
// construction; an eval hit is the same shard, whose rows are
// deterministic.
//
// The layout is internal/cache's SetAssoc — power-of-two sets × small ways,
// true-LRU within a set via a global clock — made concurrent with lock-free
// probes through per-way atomic pointers, a per-set mutex only on install,
// and entries that are immutable once published. Request bodies mint
// unbounded keys, so unlike the simulator's grow-only phase memo this cache
// must evict and cap value size.
type bodyMemo struct {
	sets    int
	setMask uint64
	ways    int
	lines   []atomic.Pointer[memoEntry] // sets*ways
	locks   []sync.Mutex                // one per set, install-side only
	clock   atomic.Uint64
}

type memoEntry struct {
	key     []byte // canonical key, owned by the entry
	resp    []byte // encoded response body, immutable
	lastUse atomic.Uint64
}

const (
	memoSets = 512
	memoWays = 4 // 2048 entries; a line is one distinct request
	// memoMaxResp skips caching pathologically large responses (a bank with
	// thousands of configurations, a many-unit eval shard) so the memo's
	// footprint stays bounded by sets*ways*memoMaxResp in the worst case.
	memoMaxResp = 64 << 10
)

func newBodyMemo() *bodyMemo {
	return &bodyMemo{
		sets:    memoSets,
		setMask: memoSets - 1,
		ways:    memoWays,
		lines:   make([]atomic.Pointer[memoEntry], memoSets*memoWays),
		locks:   make([]sync.Mutex, memoSets),
	}
}

// memoHash is the module's FNV-1a fold (internal/fnv) over the key.
func memoHash(key []byte) uint64 {
	return fnv.Bytes(fnv.Start, key)
}

// get returns the cached response body for key, or nil. Lock-free: probes
// the set's ways through atomic pointers and stamps the hit's LRU clock.
func (m *bodyMemo) get(key []byte) []byte {
	base := int(memoHash(key)&m.setMask) * m.ways
	for w := 0; w < m.ways; w++ {
		e := m.lines[base+w].Load()
		if e != nil && bytes.Equal(e.key, key) {
			e.lastUse.Store(m.clock.Add(1))
			return e.resp
		}
	}
	return nil
}

// put installs resp under key, evicting the set's LRU way when full. Both
// slices are copied: callers hand in pooled scratch.
func (m *bodyMemo) put(key, resp []byte) {
	if len(resp) > memoMaxResp {
		return
	}
	set := int(memoHash(key) & m.setMask)
	base := set * m.ways
	e := &memoEntry{
		key:  append([]byte(nil), key...),
		resp: append([]byte(nil), resp...),
	}
	e.lastUse.Store(m.clock.Add(1))

	m.locks[set].Lock()
	defer m.locks[set].Unlock()
	victim := -1
	for w := 0; w < m.ways; w++ {
		old := m.lines[base+w].Load()
		if old == nil {
			victim = w
			break
		}
		if bytes.Equal(old.key, key) {
			return // a racing miss already installed this key
		}
	}
	if victim < 0 {
		oldest := m.lines[base].Load().lastUse.Load()
		victim = 0
		for w := 1; w < m.ways; w++ {
			if t := m.lines[base+w].Load().lastUse.Load(); t < oldest {
				oldest = t
				victim = w
			}
		}
	}
	m.lines[base+victim].Store(e)
}
