package actor

import (
	"bytes"
	"sync"
	"sync/atomic"

	"github.com/greenhpc/actor/internal/fnv"
)

// bodyMemo is the server's bounded cache of fully encoded response
// bodies. Each served bank state carries one for /v1/predict, keyed by the
// canonical request (bank format version, phase, rate vector as sorted
// (event id, float64 bits) pairs), and the server keeps one for /v1/eval,
// keyed by the shard fingerprint. Two predict requests hit the same line
// iff they parse to the same rates, so a hit serves bytes that are provably
// what the miss path would have produced, which is why memo on/off
// byte-identity holds by construction; an eval hit is the same shard, whose
// rows are deterministic.
//
// The layout is power-of-two sets × small ways. Probes are lock-free
// through per-way atomic pointers and write nothing; a per-set mutex is
// taken only on install, and entries are immutable once published. A full
// set evicts its ways in turn: the set's next-victim byte advances under
// the install lock, so only misses write. Request bodies mint unbounded
// keys, so unlike the simulator's grow-only phase memo this cache must
// evict and cap value size. The zero bodyMemo is empty and ready to use.
type bodyMemo struct {
	lines [memoSets * memoWays]atomic.Pointer[memoEntry]
	sets  [memoSets]memoSet
}

// memoSet is a set's install side: the lock and the way a full set evicts
// next.
type memoSet struct {
	mu   sync.Mutex
	next uint8
}

type memoEntry struct {
	key  []byte // canonical key, owned by the entry
	resp []byte // encoded response body, immutable
}

const (
	memoSets = 512
	memoWays = 4 // 2048 entries; a line is one distinct request
	// memoMaxResp skips caching pathologically large responses (a bank with
	// thousands of configurations, a many-unit eval shard) so the memo's
	// footprint stays bounded by sets*ways*memoMaxResp in the worst case.
	memoMaxResp = 64 << 10
)

// memoHash is the module's FNV-1a fold (internal/fnv) over the key.
func memoHash(key []byte) uint64 {
	return fnv.Bytes(fnv.Start, key)
}

// get returns the cached response body for key, or nil. Lock-free and
// store-free: it probes the set's ways through atomic pointers.
func (m *bodyMemo) get(key []byte) []byte {
	base := int(memoHash(key)&(memoSets-1)) * memoWays
	for w := 0; w < memoWays; w++ {
		e := m.lines[base+w].Load()
		if e != nil && bytes.Equal(e.key, key) {
			return e.resp
		}
	}
	return nil
}

// put installs resp under key in the set's first empty way or, when the set
// is full, in the way whose turn it is. Both slices are copied: callers
// hand in pooled scratch.
func (m *bodyMemo) put(key, resp []byte) {
	if len(resp) > memoMaxResp {
		return
	}
	set := int(memoHash(key) & (memoSets - 1))
	base := set * memoWays
	e := &memoEntry{
		key:  append([]byte(nil), key...),
		resp: append([]byte(nil), resp...),
	}

	st := &m.sets[set]
	st.mu.Lock()
	defer st.mu.Unlock()
	for w := 0; w < memoWays; w++ {
		old := m.lines[base+w].Load()
		if old == nil {
			m.lines[base+w].Store(e)
			return
		}
		if bytes.Equal(old.key, key) {
			return // a racing miss already installed this key
		}
	}
	m.lines[base+int(st.next)].Store(e)
	st.next = (st.next + 1) % memoWays
}
