package fleet

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// probeIndex is the incremental scorer's probe order: the fleet's machines
// bucketed by (congestion key K, template id), the live buckets sorted by
// (K, template id), and each bucket's members a bitset over machine
// indices. Walking the buckets of equal K in ascending K and each group's
// members in index order visits machines in exactly (K, index) order —
// the policy's order — while a bucket whose template cannot take the job
// can be passed over whole.
//
// The key is the pair, not the template alone: K sums group pressures over
// the machine's real groups in real order, so two machines with one
// canonical template may differ in K's last bits, and idle machines of
// different classes share K = 0.
type probeIndex struct {
	words   int // bitset words per bucket
	buckets []probeBucket
	spare   []int32   // emptied buckets, their all-zero bitsets reused
	byTmpl  [][]int32 // template id → its live buckets
	order   []int32   // live buckets by (K, template id)
	at      []int32   // machine → its bucket
}

// probeBucket is one (K, template id) class of machines. sum has bit w set
// exactly when bits[w] is non-zero, so a near-empty bucket of a large fleet
// finds its members without scanning every word.
type probeBucket struct {
	k    float64
	tmpl int32
	n    int
	bits []uint64
	sum  []uint64
}

func newProbeIndex(machines int) *probeIndex {
	x := &probeIndex{words: (machines + 63) >> 6, at: make([]int32, machines)}
	for i := range x.at {
		x.at[i] = -1
	}
	return x
}

// move files machine i under (k, tmpl): one bit cleared in its old bucket,
// one set in its new one. A bucket joins the order with its first member
// and leaves it with its last.
func (x *probeIndex) move(i int, k float64, tmpl int32) {
	if b := x.at[i]; b >= 0 {
		old := &x.buckets[b]
		if old.tmpl == tmpl && math.Float64bits(old.k) == math.Float64bits(k) {
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
	b := x.bucket(k, tmpl)
	nb := &x.buckets[b]
	nb.bits[i>>6] |= 1 << (i & 63)
	nb.sum[i>>12] |= 1 << (i >> 6 & 63)
	nb.n++
	x.at[i] = b
}

// bucket returns the live bucket of (k, tmpl), opening one if there is none.
func (x *probeIndex) bucket(k float64, tmpl int32) int32 {
	if int(tmpl) >= len(x.byTmpl) {
		x.byTmpl = append(x.byTmpl, make([][]int32, int(tmpl)+1-len(x.byTmpl))...)
	}
	for _, b := range x.byTmpl[tmpl] {
		if math.Float64bits(x.buckets[b].k) == math.Float64bits(k) {
			return b
		}
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
	x.buckets[b].k, x.buckets[b].tmpl = k, tmpl
	x.byTmpl[tmpl] = append(x.byTmpl[tmpl], b)
	x.order = slices.Insert(x.order, x.search(k, tmpl), b)
	return b
}

// retire takes emptied bucket b out of the order and out of its template's
// list, and keeps it for reuse.
func (x *probeIndex) retire(b int32) {
	k, tmpl := x.buckets[b].k, x.buckets[b].tmpl
	pos := x.search(k, tmpl)
	x.order = slices.Delete(x.order, pos, pos+1)
	x.byTmpl[tmpl] = slices.DeleteFunc(x.byTmpl[tmpl], func(have int32) bool { return have == b })
	x.spare = append(x.spare, b)
}

// search returns the position of (k, tmpl) in the order: the first live
// bucket not before it.
func (x *probeIndex) search(k float64, tmpl int32) int {
	return sort.Search(len(x.order), func(p int) bool {
		b := &x.buckets[x.order[p]]
		return b.k > k || (b.k == k && b.tmpl >= tmpl)
	})
}

// walk visits machines in (K, index) order until visit returns false. The
// buckets of equal K form one group; a group of a single bucket — machines
// sharing one template — is first offered whole to skip, with its first
// member and its size, and passed over without a visit when skip returns
// true. A group of several buckets is visited as the union of its members.
func (x *probeIndex) walk(skip func(first, n int) bool, visit func(i int) bool) {
	for p := 0; p < len(x.order); {
		k := x.buckets[x.order[p]].k
		e := p + 1
		for e < len(x.order) && x.buckets[x.order[e]].k == k {
			e++
		}
		if b := &x.buckets[x.order[p]]; e-p > 1 || !skip(b.next(0), b.n) {
			for i := x.next(p, e, 0); i >= 0; i = x.next(p, e, i+1) {
				if !visit(i) {
					return
				}
			}
		}
		p = e
	}
}

// next returns bucket b's first member at index ≥ i, or -1.
func (b *probeBucket) next(i int) int {
	w := i >> 6
	if w < len(b.bits) {
		if v := b.bits[w] >> (i & 63); v != 0 {
			return i + bits.TrailingZeros64(v)
		}
	}
	for w++; w>>6 < len(b.sum); w = (w>>6 + 1) << 6 {
		if v := b.sum[w>>6] >> (w & 63); v != 0 {
			w += bits.TrailingZeros64(v)
			return w<<6 + bits.TrailingZeros64(b.bits[w])
		}
	}
	return -1
}

// next returns the first member at index ≥ i of any bucket at positions
// [p, e) of the order, or -1.
func (x *probeIndex) next(p, e, i int) int {
	first := -1
	for ; p < e; p++ {
		if m := x.buckets[x.order[p]].next(i); m >= 0 && (first < 0 || m < first) {
			first = m
		}
	}
	return first
}
