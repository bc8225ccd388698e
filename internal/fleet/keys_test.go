package fleet

import (
	"reflect"
	"testing"

	"github.com/greenhpc/actor/internal/topology"
)

// emptyViews returns the canonical template of an idle class-c machine.
func emptyViews(c *Class) []groupView {
	m := &machState{}
	m.recompute(c)
	return canonGroups(c, m, nil)
}

// TestShapeKeyStringPinned pins shapeKey.String() to the literal texts of
// the "kind:load,…" format. The text names the canonical placement, which
// feeds the machine model's response hash — a changed byte here changes
// every schedule digest.
func TestShapeKeyStringPinned(t *testing.T) {
	kinds := func(ks ...int) []groupView {
		v := make([]groupView, len(ks))
		for i, k := range ks {
			v[i] = groupView{kind: k, real: i}
		}
		return v
	}
	for _, tc := range []struct {
		views []groupView
		dist  distVec
		want  string
	}{
		{kinds(0, 0), distVec{2}, "0:2"},
		{kinds(0, 0), distVec{0, 2}, "0:2"},
		{kinds(0, 1), distVec{2, 1}, "0:2,1:1"},
		{kinds(1, 0), distVec{1, 2}, "0:2,1:1"},           // kinds ascending
		{kinds(0, 0, 0), distVec{1, 2, 1}, "0:2,0:1,0:1"}, // loads descending within a kind
		{kinds(0, 1, 1), distVec{2, 1, 2}, "0:2,1:2,1:1"},
		{kinds(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), distVec{10: 12}, "10:12"},
		{kinds(0, 0), distVec{}, ""},
	} {
		if got := makeShapeKey(tc.views, tc.dist).String(); got != tc.want {
			t.Errorf("views %v dist %v: shape %q, want %q", tc.views, tc.dist[:len(tc.views)], got, tc.want)
		}
	}
	// Shapes that differ only in which of several equal groups they use
	// are one key.
	a := makeShapeKey(kinds(0, 0, 1), distVec{2, 0, 1})
	b := makeShapeKey(kinds(0, 1, 0), distVec{0, 1, 2})
	if a != b {
		t.Errorf("equal load multisets keyed apart: %v vs %v", a, b)
	}
}

// TestPlacementForPinned pins the placement a typed shape key realises —
// name and cores — to what the "kind:load" text used to parse to: each term
// takes the next unused group of its kind in topology order and the first
// load cores of it.
func TestPlacementForPinned(t *testing.T) {
	// Groups [0 1 2 3] (kind 0) and [4 5] [6 7] (kind 1).
	hetero, err := NewClass("1x4+2x2:little", nil)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := NewClass("2x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		c     *Class
		shape []kindLoad
		name  string
		cores []topology.CoreID
	}{
		{quad, []kindLoad{{0, 1}}, "fleet:0:1", []topology.CoreID{0}},
		{quad, []kindLoad{{0, 2}}, "fleet:0:2", []topology.CoreID{0, 1}},
		{quad, []kindLoad{{0, 1}, {0, 1}}, "fleet:0:1,0:1", []topology.CoreID{0, 2}},
		{quad, []kindLoad{{0, 2}, {0, 2}}, "fleet:0:2,0:2", []topology.CoreID{0, 1, 2, 3}},
		{hetero, []kindLoad{{0, 3}}, "fleet:0:3", []topology.CoreID{0, 1, 2}},
		{hetero, []kindLoad{{1, 2}}, "fleet:1:2", []topology.CoreID{4, 5}},
		{hetero, []kindLoad{{0, 2}, {1, 2}, {1, 1}}, "fleet:0:2,1:2,1:1", []topology.CoreID{0, 1, 4, 5, 6}},
	} {
		var sk shapeKey
		sk.n = int8(copy(sk.kl[:], tc.shape))
		pl := tc.c.placementFor(sk)
		if pl.Name != tc.name || !reflect.DeepEqual(pl.Cores, tc.cores) {
			t.Errorf("%s shape %v: placement %q %v, want %q %v", tc.c.Desc, tc.shape, pl.Name, pl.Cores, tc.name, tc.cores)
		}
	}
}

// TestDecisionKeyEquality: machines with equal residual state key
// identically (== and hash), a difference in any one field keys apart, and
// a scratch key refilled after a wider template carries no stale tail.
func TestDecisionKeyEquality(t *testing.T) {
	views := []groupView{
		{kind: 0, free: 2, occ: 0, ws: 0, sensMax: 0, real: 1},
		{kind: 0, free: 1, occ: 1, ws: 3e5, sensMax: 0.4, real: 0},
		{kind: 1, free: 0, occ: 2, ws: 7e5, sensMax: 0.6, real: 2},
	}
	job := &Job{SigKey: "CG", MaxThreads: 3}
	var base decisionKey
	baseHash := base.fill(1, views, 0.8, 0.6, job)

	// Same residual state on another machine: only the real indices —
	// which never feed scoring — differ.
	twin := append([]groupView(nil), views...)
	twin[0].real, twin[1].real = 0, 1
	var k decisionKey
	if h := k.fill(1, twin, 0.8, 0.6, job); k != base || h != baseHash {
		t.Fatal("equal residual states produced different keys")
	}

	differs := func(name string, ci int, v []groupView, bus, sens float64, j *Job) {
		t.Helper()
		var k decisionKey
		h := k.fill(ci, v, bus, sens, j)
		if k == base {
			t.Errorf("%s: key unchanged", name)
		}
		if h == baseHash {
			t.Errorf("%s: hash unchanged", name)
		}
	}
	differs("class", 2, views, 0.8, 0.6, job)
	differs("busSum", 1, views, 0.8000000000000002, 0.6, job)
	differs("maxSens", 1, views, 0.8, 0.7, job)
	differs("sig", 1, views, 0.8, 0.6, &Job{SigKey: "MG", MaxThreads: 3})
	differs("maxT", 1, views, 0.8, 0.6, &Job{SigKey: "CG", MaxThreads: 4})
	differs("narrower template", 1, views[:2], 0.8, 0.6, job)
	for gi := range views {
		for name, mutate := range map[string]func(*groupView){
			"kind":    func(g *groupView) { g.kind++ },
			"free":    func(g *groupView) { g.free++ },
			"occ":     func(g *groupView) { g.occ++ },
			"ws":      func(g *groupView) { g.ws += 1 },
			"sensMax": func(g *groupView) { g.sensMax += 0.01 },
		} {
			v := append([]groupView(nil), views...)
			mutate(&v[gi])
			differs(name, 1, v, 0.8, 0.6, job)
		}
	}

	// Scratch reuse: fill from a wider template, then from views.
	wide := append(append([]groupView(nil), views...),
		groupView{kind: 1, free: 2, ws: 9e5, sensMax: 0.9, real: 3},
		groupView{kind: 2, free: 4, occ: 1, ws: 1e6, sensMax: 0.2, real: 4})
	var scratch decisionKey
	scratch.fill(1, wide, 0.8, 0.6, job)
	if h := scratch.fill(1, views, 0.8, 0.6, job); scratch != base || h != baseHash {
		t.Fatal("key refilled after a wider template differs from a fresh one (stale tail)")
	}
}

// classShapes counts the distinct shape keys any residual state of class c
// can produce for budgets up to maxT: every per-group thread distribution
// within group sizes, canonicalised.
func classShapes(c *Class, maxT int) int {
	views := emptyViews(c)
	seen := map[shapeKey]bool{}
	var dist distVec
	var rec func(g, left int)
	rec = func(g, left int) {
		if g == len(views) {
			if left < maxT { // at least one thread placed
				seen[makeShapeKey(views, dist)] = true
			}
			return
		}
		for k := 0; k <= views[g].free && k <= left; k++ {
			dist[g] = int8(k)
			rec(g+1, left-k)
		}
		dist[g] = 0
	}
	rec(0, maxT)
	return len(seen)
}

// TestMemoStateBoundedByCatalogue: the solo and solo-best memos are
// grow-only, so what bounds them must be the catalogue (classes ×
// signatures × shapes), not the stream: a 1000-job run stays inside it.
func TestMemoStateBoundedByCatalogue(t *testing.T) {
	f, jobs := testStream(t, 1000)
	sigs := map[string]bool{}
	maxT := 0
	for i := range jobs {
		sigs[jobs[i].SigKey] = true
		maxT = max(maxT, jobs[i].MaxThreads)
	}
	soloBound := 0
	for _, c := range f.Classes {
		soloBound += len(sigs) * classShapes(c, maxT)
	}
	bestBound := len(sigs) * maxT

	s := newScorer(f)
	res, err := s.schedule(jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("%d QoS violations", res.Violations)
	}
	_, _, solo := s.solo.Stats()
	_, _, best := s.best.Stats()
	hits, _, decisions := s.decision.Stats()
	t.Logf("1000 jobs: solo %d/%d, best %d/%d, decision entries %d (%d hits)",
		solo, soloBound, best, bestBound, decisions, hits)
	if solo == 0 || solo > uint64(soloBound) {
		t.Errorf("solo memo holds %d entries, catalogue bound is %d", solo, soloBound)
	}
	if best == 0 || best > uint64(bestBound) {
		t.Errorf("solo-best memo holds %d entries, catalogue bound is %d", best, bestBound)
	}
	if hits == 0 {
		t.Error("decision memo never hit")
	}
}
