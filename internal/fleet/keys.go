package fleet

import (
	"cmp"
	"slices"
	"strconv"
)

// The keys of a run's solo table and job classes: comparable structs used
// as plain map keys. Unused tail entries of a shape key's fixed array stay
// zero, so == compares only the loads the shape has.

// kindLoad is one occupied group of a shape: the group's kind and the
// threads it hosts.
type kindLoad struct{ kind, load int8 }

// shapeKey canonicalises a shape into the per-kind load multiset that
// determines its solo behaviour: which group kinds host how many threads.
// Pairs are sorted by kind, loads descending within a kind, so "2 threads
// in one big group" keys the same however the canonical template happened
// to order equal groups.
type shapeKey struct {
	n  int8
	kl [maxGroups]kindLoad
}

func makeShapeKey(views []groupView, dist distVec) shapeKey {
	var sk shapeKey
	for i := range views {
		if dist[i] > 0 {
			sk.kl[sk.n] = kindLoad{int8(views[i].kind), dist[i]}
			sk.n++
		}
	}
	slices.SortFunc(sk.kl[:sk.n], func(a, b kindLoad) int {
		return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(b.load, a.load))
	})
	return sk
}

// String renders the shape as "kind:load,kind:load,…". The text names the
// shape's canonical placement and so feeds the machine model's response
// hash: changing it changes every schedule.
func (sk shapeKey) String() string {
	buf := make([]byte, 0, 64)
	for i, l := range sk.kl[:sk.n] {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(l.kind), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(l.load), 10)
	}
	return string(buf)
}

// soloKey keys the solo metrics of a job signature under one shape on one
// machine class.
type soloKey struct {
	class int
	sig   string
	shape shapeKey
}

// bestKey is a job class: a signature and a budget, which fix the job's
// fleet-wide solo-best unit time.
type bestKey struct {
	sig  string
	maxT int
}
