package fleet

import (
	"cmp"
	"math"
	"slices"
	"strconv"
)

// The scorer's memo keys: fixed-size comparable structs stored in
// internal/memo tables. Floats enter as exact bit patterns — a memo may
// only serve a cached value to a caller whose inputs would reproduce it bit
// for bit. Every key hashes only the fields it uses, so unused tail
// entries of the fixed arrays must be zero for == to agree with the hash.

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

// bestKey keys a signature's fleet-wide solo-best unit time at a budget.
type bestKey struct {
	sig  string
	maxT int
}

// groupKey is the scoring-relevant residual state of one canonical group.
type groupKey struct {
	kind, free, occ int16
	ws, sensMax     uint64
}

// templateKey is a machine's canonical residual template — everything about
// the machine a shape decision reads. scorer.intern maps it to a small
// integer id once per new resident state, so the decision key carries the
// id instead of these 432 bytes. A class fixes how many groups are in use;
// the rest stay zero.
type templateKey struct {
	class           int
	busSum, maxSens uint64
	groups          [maxGroups]groupKey
}

// makeTemplateKey builds the key of the canonical template (views, busSum,
// maxSens) of a class-ci machine, and its hash.
func makeTemplateKey(ci int, views []groupView, busSum, maxSens float64) (templateKey, uint64) {
	k := templateKey{class: ci, busSum: math.Float64bits(busSum), maxSens: math.Float64bits(maxSens)}
	h := mix(mix(mix(hashInit, uint64(ci)), k.busSum), k.maxSens)
	for i := range views {
		g := &views[i]
		gk := groupKey{int16(g.kind), int16(g.free), int16(g.occ), math.Float64bits(g.ws), math.Float64bits(g.sensMax)}
		k.groups[i] = gk
		h = mix(h, uint64(gk.kind)<<32|uint64(gk.free)<<16|uint64(gk.occ))
		h = mix(mix(h, gk.ws), gk.sensMax)
	}
	return k, splitmix64(h)
}

// decisionKey keys a shape decision: the interned template of the machine
// and the job's signature and budget.
type decisionKey struct {
	tmpl int32
	maxT int
	sig  string
}

func (k *decisionKey) hash() uint64 {
	return splitmix64(mix(mixString(mix(hashInit, uint64(k.tmpl)), k.sig), uint64(k.maxT)))
}

func (k *soloKey) hash() uint64 {
	h := mixString(mix(hashInit, uint64(k.class)), k.sig)
	for _, l := range k.shape.kl[:k.shape.n] {
		h = mix(h, uint64(l.kind)<<8|uint64(l.load))
	}
	return splitmix64(h)
}

func (k *bestKey) hash() uint64 {
	return splitmix64(mix(mixString(hashInit, k.sig), uint64(k.maxT)))
}

const hashInit = 0x9e3779b97f4a7c15

// splitmix64 is the 64-bit finaliser every deterministic hash and draw of
// the package mixes through.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix folds one word into a running hash, carrying the product's high half
// back down so float bit patterns (which differ mostly in their top bits)
// spread into the low bits that select a memo shard and probe start.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = mix(h, uint64(s[i]))
	}
	return mix(h, uint64(len(s)))
}
