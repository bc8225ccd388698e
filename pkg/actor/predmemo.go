package actor

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// predictMemo is the serving-side prediction cache: an exact-key memo from
// (bank version, phase, rate vector) to the fully encoded /v1/predict
// response body. Keys canonicalize the rate vector as sorted
// (event id, float64 bits) pairs, so two requests hit the same line iff
// they parse to the same rates — a hit serves bytes that are provably what
// the miss path would have produced, which is why memo on/off byte-identity
// holds by construction.
//
// The layout is internal/cache's SetAssoc — power-of-two sets × small ways,
// true-LRU within a set via a global clock — adapted for concurrency the
// way internal/memo's grow-only Table is: lock-free probes through per-way
// atomic pointers, a per-set mutex only on install, and entries that are
// immutable once published. It is deliberately not built on that table
// (nor merged with evalCache): request bodies mint unbounded keys, so this
// cache must evict and cap value size, and the table can do neither
// without branching on its caller.
type predictMemo struct {
	sets    int
	setMask uint64
	ways    int
	lines   []atomic.Pointer[memoEntry] // sets*ways
	locks   []sync.Mutex                // one per set, install-side only
	clock   atomic.Uint64
}

type memoEntry struct {
	key  []byte // canonical key, owned by the entry
	resp []byte // encoded response body, immutable
	// obsErr is the recalibration observer's prediction-error proxy for
	// this request, computed once on the miss that installed the entry so
	// hits can feed the observation store without re-running a predictor.
	obsErr  float64
	lastUse atomic.Uint64
}

const (
	memoSets = 512
	memoWays = 4 // 2048 entries; a line is one distinct (phase, rates) vector
	// memoMaxResp skips caching pathologically large responses (a bank with
	// thousands of configurations) so the memo's footprint stays bounded by
	// sets*ways*memoMaxResp in the worst case.
	memoMaxResp = 64 << 10
)

func newPredictMemo() *predictMemo {
	return &predictMemo{
		sets:    memoSets,
		setMask: memoSets - 1,
		ways:    memoWays,
		lines:   make([]atomic.Pointer[memoEntry], memoSets*memoWays),
		locks:   make([]sync.Mutex, memoSets),
	}
}

// memoHash is FNV-1a over the canonical key.
func memoHash(key []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// lookup returns the cached entry for key, or nil. Lock-free: probes the
// set's ways through atomic pointers and stamps the hit's LRU clock.
func (m *predictMemo) lookup(key []byte) *memoEntry {
	base := int(memoHash(key)&m.setMask) * m.ways
	for w := 0; w < m.ways; w++ {
		e := m.lines[base+w].Load()
		if e != nil && bytes.Equal(e.key, key) {
			e.lastUse.Store(m.clock.Add(1))
			return e
		}
	}
	return nil
}

// get returns the cached response body for key, or nil.
func (m *predictMemo) get(key []byte) []byte {
	if e := m.lookup(key); e != nil {
		return e.resp
	}
	return nil
}

// put installs resp under key, evicting the set's LRU way when full. Both
// slices are copied: callers hand in pooled scratch. obsErr rides along so
// memo hits can observe without recomputing it.
func (m *predictMemo) put(key, resp []byte, obsErr float64) {
	if len(resp) > memoMaxResp {
		return
	}
	set := int(memoHash(key) & m.setMask)
	base := set * m.ways
	e := &memoEntry{
		key:    append([]byte(nil), key...),
		resp:   append([]byte(nil), resp...),
		obsErr: obsErr,
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
