package fleet

import (
	"math/bits"
	"slices"
	"sort"
)

// probeIndex is the incremental scorer's probe order: the fleet's machines
// bucketed by resident state, the live buckets sorted by (congestion key K,
// state id), and each bucket's members a bitset over machine indices. K is
// a function of the state, so a bucket has one K, and machines of one state
// share every admission verdict: a probe asks once per bucket, and the
// policy's (K, index) order is recovered group by group — the buckets of
// equal K — from the buckets' lowest members.
//
// Buckets of equal K are common: idle machines of different classes share
// K = 0, and two states may agree on K's bits by accident.
type probeIndex struct {
	words   int // bitset words per bucket
	buckets []probeBucket
	spare   []int32 // emptied buckets, their all-zero bitsets reused
	byState []int32 // state id → its live bucket, or -1
	order   []int32 // live buckets by (K, state id)
	at      []int32 // machine → its bucket
	group   []groupEntry
}

// probeBucket is the set of machines in one resident state. sum has bit w
// set exactly when bits[w] is non-zero, so a near-empty bucket of a large
// fleet finds its members without scanning every word.
type probeBucket struct {
	k     float64
	state int32
	n     int
	bits  []uint64
	sum   []uint64
}

// groupEntry is one bucket of a K group with its lowest member and whether
// it was judged infeasible, choose's scratch.
type groupEntry struct {
	head     int
	bucket   int32
	rejected bool
}

// probeVerdict is what a probe learns of one bucket's state.
type probeVerdict int8

const (
	probeFull       probeVerdict = iota // no free core: passed over unscored
	probeInfeasible                     // scored and rejected
	probeFeasible
)

func newProbeIndex(machines int) *probeIndex {
	x := &probeIndex{words: (machines + 63) >> 6, at: make([]int32, machines)}
	for i := range x.at {
		x.at[i] = -1
	}
	return x
}

// move files machine i under state (whose K is k): one bit cleared in its
// old bucket, one set in its new one. A bucket joins the order with its
// first member and leaves it with its last.
func (x *probeIndex) move(i int, k float64, state int32) {
	if b := x.at[i]; b >= 0 {
		old := &x.buckets[b]
		if old.state == state {
			return
		}
		old.bits[i>>6] &^= 1 << (i & 63)
		if old.bits[i>>6] == 0 {
			old.sum[i>>12] &^= 1 << (i >> 6 & 63)
		}
		if old.n--; old.n == 0 {
			x.retire(b)
		}
	}
	b := x.bucket(k, state)
	nb := &x.buckets[b]
	nb.bits[i>>6] |= 1 << (i & 63)
	nb.sum[i>>12] |= 1 << (i >> 6 & 63)
	nb.n++
	x.at[i] = b
}

// bucket returns the live bucket of state, opening one if there is none.
func (x *probeIndex) bucket(k float64, state int32) int32 {
	for int(state) >= len(x.byState) {
		x.byState = append(x.byState, -1)
	}
	if b := x.byState[state]; b >= 0 {
		return b
	}
	var b int32
	if n := len(x.spare); n > 0 {
		b, x.spare = x.spare[n-1], x.spare[:n-1]
	} else {
		b = int32(len(x.buckets))
		x.buckets = append(x.buckets, probeBucket{
			bits: make([]uint64, x.words),
			sum:  make([]uint64, (x.words+63)>>6),
		})
	}
	x.buckets[b].k, x.buckets[b].state = k, state
	x.byState[state] = b
	x.order = slices.Insert(x.order, x.search(k, state), b)
	return b
}

// retire takes emptied bucket b out of the order and keeps it for reuse.
func (x *probeIndex) retire(b int32) {
	k, state := x.buckets[b].k, x.buckets[b].state
	pos := x.search(k, state)
	x.order = slices.Delete(x.order, pos, pos+1)
	x.byState[state] = -1
	x.spare = append(x.spare, b)
}

// search returns the position of (k, state) in the order: the first live
// bucket not before it.
func (x *probeIndex) search(k float64, state int32) int {
	return sort.Search(len(x.order), func(p int) bool {
		b := &x.buckets[x.order[p]]
		return b.k > k || (b.k == k && b.state >= state)
	})
}

// choose returns the first machine in (K, index) order whose bucket judge
// finds feasible, or -1, and how many machines the policy scored on the
// way: every member of a bucket judged infeasible that comes before the
// chosen machine, plus the chosen one. judge is given a bucket's state and
// its lowest member. Within a group of equal K it is asked about buckets in
// the order of their lowest members and not beyond the first feasible one,
// so it is asked about exactly the states of the machines up to the chosen
// one: the first feasible machine of the group is the lowest member of its
// first feasible bucket.
func (x *probeIndex) choose(judge func(state int32, member int) probeVerdict) (int, int64) {
	var scored int64
	for p := 0; p < len(x.order); {
		k := x.buckets[x.order[p]].k
		e := p + 1
		for e < len(x.order) && x.buckets[x.order[e]].k == k {
			e++
		}
		g := x.group[:0]
		for _, b := range x.order[p:e] {
			g = append(g, groupEntry{head: x.buckets[b].head(), bucket: b})
			for i := len(g) - 1; i > 0 && g[i].head < g[i-1].head; i-- {
				g[i], g[i-1] = g[i-1], g[i]
			}
		}
		x.group = g
		for gi := range g {
			switch judge(x.buckets[g[gi].bucket].state, g[gi].head) {
			case probeFeasible:
				for _, ge := range g[:gi] {
					if ge.rejected {
						scored += int64(x.buckets[ge.bucket].below(g[gi].head))
					}
				}
				return g[gi].head, scored + 1
			case probeInfeasible:
				g[gi].rejected = true
			}
		}
		for _, ge := range g {
			if ge.rejected {
				scored += int64(x.buckets[ge.bucket].n)
			}
		}
		p = e
	}
	return -1, scored
}

// head returns the lowest member of bucket b, which is not empty.
func (b *probeBucket) head() int {
	for s, v := range b.sum {
		if v != 0 {
			w := s<<6 + bits.TrailingZeros64(v)
			return w<<6 + bits.TrailingZeros64(b.bits[w])
		}
	}
	return -1
}

// below returns how many of bucket b's members have an index below i.
func (b *probeBucket) below(i int) int {
	w := i >> 6
	n := bits.OnesCount64(b.bits[w] & (1<<(i&63) - 1))
	for s := 0; s <= w>>6; s++ {
		v := b.sum[s]
		if s == w>>6 {
			v &= 1<<(w&63) - 1
		}
		for ; v != 0; v &= v - 1 {
			n += bits.OnesCount64(b.bits[s<<6+bits.TrailingZeros64(v)])
		}
	}
	return n
}
