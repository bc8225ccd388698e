package fleet

// machTreap keeps fleet machines ordered by (congestion key, machine
// index) so the incremental scorer can probe candidates
// least-congested-first and update a touched machine in O(log M). The
// treap's heap priorities are derived deterministically from the machine
// index (splitmix64), so the tree shape — and therefore every iteration —
// is identical across runs and GOMAXPROCS settings.
type machTreap struct {
	nodes []treapNode // node per machine, indexed by machine index
	root  int32
	stack []int32 // iteration scratch
}

type treapNode struct {
	key         float64
	left, right int32
	prio        uint64
	present     bool
}

const nilNode = int32(-1)

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newMachTreap(n int) *machTreap {
	t := &machTreap{nodes: make([]treapNode, n), root: nilNode}
	for i := range t.nodes {
		t.nodes[i] = treapNode{left: nilNode, right: nilNode, prio: splitmix64(uint64(i))}
	}
	return t
}

func (t *machTreap) merge(a, b int32) int32 {
	if a == nilNode {
		return b
	}
	if b == nilNode {
		return a
	}
	if t.nodes[a].prio > t.nodes[b].prio {
		t.nodes[a].right = t.merge(t.nodes[a].right, b)
		return a
	}
	t.nodes[b].left = t.merge(a, t.nodes[b].left)
	return b
}

// split partitions the tree rooted at n into nodes ordered before
// (key, idx) and the rest.
func (t *machTreap) split(n int32, key float64, idx int32) (lo, hi int32) {
	if n == nilNode {
		return nilNode, nilNode
	}
	nk := t.nodes[n].key
	if nk < key || (nk == key && n < idx) {
		t.nodes[n].right, hi = t.split(t.nodes[n].right, key, idx)
		return n, hi
	}
	lo, t.nodes[n].left = t.split(t.nodes[n].left, key, idx)
	return lo, n
}

// Insert adds machine i with the given key; i must not be present.
func (t *machTreap) Insert(i int32, key float64) {
	n := &t.nodes[i]
	n.key = key
	n.left, n.right = nilNode, nilNode
	n.present = true
	lo, hi := t.split(t.root, key, i)
	t.root = t.merge(t.merge(lo, i), hi)
}

// Remove deletes machine i if present.
func (t *machTreap) Remove(i int32) {
	if !t.nodes[i].present {
		return
	}
	t.root = t.remove(t.root, i)
	t.nodes[i].present = false
}

func (t *machTreap) remove(n, i int32) int32 {
	if n == nilNode {
		return nilNode
	}
	if n == i {
		return t.merge(t.nodes[n].left, t.nodes[n].right)
	}
	if t.beforeNode(i, n) {
		t.nodes[n].left = t.remove(t.nodes[n].left, i)
	} else {
		t.nodes[n].right = t.remove(t.nodes[n].right, i)
	}
	return n
}

// beforeNode reports whether machine i orders before node n.
func (t *machTreap) beforeNode(i, n int32) bool {
	if t.nodes[i].key != t.nodes[n].key {
		return t.nodes[i].key < t.nodes[n].key
	}
	return i < n
}

// Update moves machine i to a new key.
func (t *machTreap) Update(i int32, key float64) {
	t.Remove(i)
	t.Insert(i, key)
}

// Walk visits machines in (key, index) order, calling visit until it
// returns false — the incremental scorer's least-congested-first probe.
// The explicit stack avoids recursion on the hot path.
func (t *machTreap) Walk(visit func(i int32) bool) {
	// The stack holds the ancestors whose node and right subtree are still
	// pending: a node's whole left spine is stacked before it is visited.
	t.stack = t.stack[:0]
	for n := t.root; n != nilNode; n = t.nodes[n].left {
		t.stack = append(t.stack, n)
	}
	for len(t.stack) > 0 {
		n := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		if !visit(n) {
			return
		}
		for n = t.nodes[n].right; n != nilNode; n = t.nodes[n].left {
			t.stack = append(t.stack, n)
		}
	}
}
