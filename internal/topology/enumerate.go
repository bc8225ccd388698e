package topology

import (
	"strconv"
	"strings"
)

// This file enumerates the canonical placements of a topology.
//
// Two placements are performance-equivalent under the machine model exactly
// when they put the same number of threads into *interchangeable* L2 groups
// in the same multiset pattern. On a homogeneous machine every group is
// interchangeable with every other; on a heterogeneous machine only groups
// of the same shape — same size and same per-core class sequence — are.
// Enumeration therefore partitions the groups into shape families and
// canonicalizes occupancy multisets within a family only, so asymmetric
// topologies enumerate correctly: one thread on a big group and one thread
// on a little group are distinct configurations.
//
// Within a group, threads occupy the group's cores in listed order (prefix
// occupancy). For groups whose cores all share one class — everything the
// builder produces — this is exhaustive over distinct configurations; for
// hand-built groups mixing classes it is a documented canonical choice.

// groupFamily is a maximal set of interchangeable L2 groups: same size and
// same per-core class sequence, in ascending topology group order.
type groupFamily struct {
	size   int   // cores per group
	groups []int // topology group indices, ascending
}

// capacity returns the total cores the family can host.
func (f *groupFamily) capacity() int { return f.size * len(f.groups) }

// groupFamilies partitions t's L2 groups into shape families in
// first-appearance order. A homogeneous topology yields a single family.
func (t *Topology) groupFamilies() []groupFamily {
	var fams []groupFamily
	byShape := make(map[string]int)
	var key strings.Builder
	for gi, g := range t.L2Groups {
		key.Reset()
		key.WriteString(strconv.Itoa(len(g)))
		for _, c := range g {
			key.WriteByte('/')
			key.WriteString(strconv.Itoa(t.ClassIndexOf(c)))
		}
		k := key.String()
		fi, ok := byShape[k]
		if !ok {
			fi = len(fams)
			byShape[k] = fi
			fams = append(fams, groupFamily{size: len(g)})
		}
		fams[fi].groups = append(fams[fi].groups, gi)
	}
	return fams
}

// famPattern is one canonical occupancy pattern: per family, a
// non-increasing partition of that family's thread share (nil for an empty
// family). Parts are assigned to the family's groups in ascending topology
// group order.
type famPattern [][]int

// partitions enumerates the partitions of n into at most maxParts parts of
// size at most maxPart, non-increasing, largest-first-part order — the same
// order the original homogeneous enumeration produced.
func partitions(n, maxPart, maxParts int) [][]int {
	var out [][]int
	var rec func(rem, maxPer, left int, acc []int)
	rec = func(rem, maxPer, left int, acc []int) {
		if rem == 0 {
			occ := make([]int, len(acc))
			copy(occ, acc)
			out = append(out, occ)
			return
		}
		if left == 0 {
			return
		}
		take := maxPer
		if take > rem {
			take = rem
		}
		for ; take >= 1; take-- {
			rec(rem-take, take, left-1, append(acc, take))
		}
	}
	rec(n, maxPart, maxParts, nil)
	return out
}

// familyPatterns enumerates every distinct famPattern placing n threads on
// the families: all ways of splitting n across families (family-0-heavy
// first) combined with each family's canonical partitions.
func familyPatterns(fams []groupFamily, n int) []famPattern {
	// Suffix capacities bound how much later families can absorb.
	suffixCap := make([]int, len(fams)+1)
	for i := len(fams) - 1; i >= 0; i-- {
		suffixCap[i] = suffixCap[i+1] + fams[i].capacity()
	}
	var out []famPattern
	cur := make(famPattern, len(fams))
	var rec func(fi, rem int)
	rec = func(fi, rem int) {
		if fi == len(fams) {
			out = append(out, append(famPattern(nil), cur...))
			return
		}
		f := &fams[fi]
		hi := f.capacity()
		if hi > rem {
			hi = rem
		}
		lo := rem - suffixCap[fi+1]
		if lo < 0 {
			lo = 0
		}
		for take := hi; take >= lo; take-- {
			if take == 0 {
				cur[fi] = nil
				rec(fi+1, rem)
				continue
			}
			for _, part := range partitions(take, f.size, len(f.groups)) {
				cur[fi] = part
				rec(fi+1, rem-take)
			}
		}
	}
	rec(0, n)
	return out
}

// patternName renders the human-readable suffix of a pattern: per-family
// partitions joined "+" within a family and "|" across families (empty
// families render empty, so "2+1|" and "2|1" stay distinct). Single-family
// topologies render exactly the historical "2+1" form.
func patternName(fp famPattern) string {
	var b strings.Builder
	for fi, part := range fp {
		if fi > 0 {
			b.WriteByte('|')
		}
		for i, o := range part {
			if i > 0 {
				b.WriteByte('+')
			}
			b.WriteString(strconv.Itoa(o))
		}
	}
	return b.String()
}

// patternCores materialises the core list of a pattern: each family's parts
// claim the leading cores of its groups in ascending group order.
func patternCores(t *Topology, fams []groupFamily, fp famPattern) []CoreID {
	occ := make([]int, len(t.L2Groups))
	n := 0
	for fi, part := range fp {
		for pi, k := range part {
			occ[fams[fi].groups[pi]] = k
			n += k
		}
	}
	return occupancyCores(t, occ, n)
}

// occupancyCores lists the first occ[g] cores of every group g in global
// topology group order: the n cores of a placement with that occupancy.
func occupancyCores(t *Topology, occ []int, n int) []CoreID {
	cores := make([]CoreID, 0, n)
	for gi, g := range t.L2Groups {
		cores = append(cores, g[:occ[gi]]...)
	}
	return cores
}

// EnumeratePlacements generates one canonical placement for every distinct
// (thread count, per-family occupancy multiset) combination on topology t.
// This generalises the paper's {1, 2a, 2b, 3, 4} to arbitrary machines,
// including heterogeneous ones (see the file comment for the equivalence
// classes).
//
// The result is materialised; sweeps that only need one pass should use
// EnumeratePlacementsFunc, which streams the same placements in the same
// order without building the slice.
func EnumeratePlacements(t *Topology) []Placement {
	var out []Placement
	EnumeratePlacementsFunc(t, func(p Placement) bool {
		out = append(out, p)
		return true
	})
	return out
}

// EnumeratePlacementsFunc streams the canonical placements of topology t to
// yield, in the same order EnumeratePlacements returns them (ascending
// thread count, canonical occupancy order within a count). Enumeration
// stops early when yield returns false. Each yielded Placement owns its
// Cores slice, so callers may retain it.
//
// familyPatterns emits each distinct (per-family split × per-family
// partition) combination exactly once, so no dedup pass runs here — the
// per-pattern occupancy-key allocation the old generator paid (it built a
// string key per pattern to guard a generator that could revisit
// patterns) is gone entirely, and the readable key is only rendered for
// placements that need a name suffix.
func EnumeratePlacementsFunc(t *Topology, yield func(Placement) bool) {
	fams := t.groupFamilies()
	for n := 1; n <= t.NumCores; n++ {
		pats := familyPatterns(fams, n)
		for _, fp := range pats {
			name := strconv.Itoa(n)
			if len(pats) > 1 {
				name = name + ":" + patternName(fp)
			}
			if !yield(Placement{Name: name, Cores: patternCores(t, fams, fp)}) {
				return
			}
		}
	}
}

// BalancedPlacements materialises EnumerateBalancedFunc's stream.
func BalancedPlacements(t *Topology) []Placement {
	var out []Placement
	EnumerateBalancedFunc(t, func(p Placement) bool {
		out = append(out, p)
		return true
	})
	return out
}

// EnumerateBalancedFunc streams one placement per distinct per-family
// thread-count vector, spreading each family's threads across its groups as
// evenly as possible (the schedule an OS or OpenMP runtime would actually
// pick). The full multiset enumeration grows combinatorially on large
// heterogeneous machines — a 128-core big/little part has millions of
// distinct occupancy multisets — while the balanced space is
// Π(familyCores+1) − 1, a few thousand at 128 cores, which keeps
// hetero-scaling studies tractable without losing the placements that
// matter.
//
// It lists each BalancedOccupancy entry's cores: the first occ[g] cores of
// every group g, in topology group order. Order and names are
// BalancedOccupancy's; the last placement is always the all-cores
// configuration (BalancedAllCores), the convention the exp drivers
// normalise against. Enumeration stops early when yield returns false, and
// each yielded Placement owns its Cores slice.
func EnumerateBalancedFunc(t *Topology, yield func(Placement) bool) {
	BalancedOccupancy(t, func(name []byte, threads int, occ []int) bool {
		return yield(Placement{Name: string(name), Cores: occupancyCores(t, occ, threads)})
	})
}

// BalancedAllCores returns the last placement EnumerateBalancedFunc yields:
// every core, in topology group order, under its balanced name.
func BalancedAllCores(t *Topology) Placement {
	fams := t.groupFamilies()
	counts := make([]int, len(fams))
	occ := make([]int, len(t.L2Groups))
	n := 0
	for fi := range fams {
		counts[fi] = fams[fi].capacity()
		fams[fi].respread(occ, 0, counts[fi])
		n += counts[fi]
	}
	return Placement{Name: string(appendBalancedName(nil, n, counts)), Cores: occupancyCores(t, occ, n)}
}

// BalancedOccupancy streams the balanced placements of t without listing
// their cores. Each entry is one per-family thread-count vector: its name,
// its thread count and its per-L2-group occupancy, where occ[g] threads sit
// on the first occ[g] cores of group g. Within a family, the first t mod g
// groups (ascending topology group order) hold ⌊t/g⌋+1 threads and the rest
// ⌊t/g⌋.
//
// Order: ascending thread count, then the count vectors in descending
// lexicographic order (family-0-heavy first). It is generated directly: for
// each total, family f takes from min(cap_f, rem) down to
// max(0, rem − Σ_{f' > f} cap_f'). Names are "n" on single-family
// topologies and "n:t0/t1/..." (per-family counts) otherwise.
//
// name and occ are rewritten for the next entry once yield returns, so
// yield copies what it keeps. Enumeration stops when yield returns false.
func BalancedOccupancy(t *Topology, yield func(name []byte, threads int, occ []int) bool) {
	fams := t.groupFamilies()
	suffixCap := make([]int, len(fams)+1)
	for fi := len(fams) - 1; fi >= 0; fi-- {
		suffixCap[fi] = suffixCap[fi+1] + fams[fi].capacity()
	}
	counts := make([]int, len(fams))
	occ := make([]int, len(t.L2Groups))
	var name []byte
	total := 0
	var rec func(fi, rem int) bool
	rec = func(fi, rem int) bool {
		if fi == len(fams) {
			name = appendBalancedName(name[:0], total, counts)
			return yield(name, total, occ)
		}
		f := &fams[fi]
		for take := min(f.capacity(), rem); take >= max(0, rem-suffixCap[fi+1]); take-- {
			f.respread(occ, counts[fi], take)
			counts[fi] = take
			if !rec(fi+1, rem-take) {
				return false
			}
		}
		return true
	}
	for total = 1; total <= suffixCap[0]; total++ {
		if !rec(0, total) {
			return
		}
	}
}

// respread moves the family's balanced occupancy in occ from n threads to
// to. Thread k (0-based) sits on the family's group k mod g, which is
// BalancedOccupancy's spread, so a move touches only the groups of the
// threads it adds or drops.
func (f *groupFamily) respread(occ []int, n, to int) {
	g := len(f.groups)
	for ; n < to; n++ {
		occ[f.groups[n%g]]++
	}
	for ; n > to; n-- {
		occ[f.groups[(n-1)%g]]--
	}
}

// appendBalancedName appends the balanced name of a count vector totalling
// n: "n" for one family, "n:t0/t1/..." for several.
func appendBalancedName(dst []byte, n int, counts []int) []byte {
	dst = strconv.AppendInt(dst, int64(n), 10)
	if len(counts) < 2 {
		return dst
	}
	for fi, c := range counts {
		sep := byte('/')
		if fi == 0 {
			sep = ':'
		}
		dst = strconv.AppendInt(append(dst, sep), int64(c), 10)
	}
	return dst
}
