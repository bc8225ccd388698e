package fleet

import (
	"reflect"
	"testing"

	"github.com/greenhpc/actor/internal/topology"
)

// emptyViews returns the canonical template of an idle class-c machine.
func emptyViews(c *Class) []groupView {
	var st resState
	st.recompute(c, nil)
	return canonGroups(c, &st, nil)
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

// TestMemoStateBoundedByCatalogue: the solo table is grow-only, so what
// bounds it must be the catalogue (classes × signatures × shapes), not the
// stream: a 1000-job run stays inside it, and so does the number of job
// classes, each holding one solo best. The state table grows with what
// happened, never with what was probed: one idle state per class plus at
// most one per placement and one per completion. The verdict rows hold at
// most one verdict per state and job class.
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
	classBound := len(sigs) * maxT

	r, err := schedule(f, jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := r.res
	if res.Violations != 0 {
		t.Fatalf("%d QoS violations", res.Violations)
	}
	stateBound := len(f.Classes) + 2*len(jobs)
	t.Logf("1000 jobs: solo %d/%d, job classes %d/%d, states %d/%d, verdicts %d",
		len(r.solo), soloBound, len(r.classes), classBound, len(r.table), stateBound, len(r.verdicts))
	if len(r.table) < len(f.Classes) || len(r.table) > stateBound || len(r.table) != res.States {
		t.Errorf("state table holds %d entries (result says %d), event bound is %d", len(r.table), res.States, stateBound)
	}
	if len(r.verdicts) == 0 || len(r.verdicts) > len(r.table)*len(r.classes) {
		t.Errorf("%d verdicts for %d states and %d job classes", len(r.verdicts), len(r.table), len(r.classes))
	}
	if len(r.solo) == 0 || len(r.solo) > soloBound {
		t.Errorf("solo table holds %d entries, catalogue bound is %d", len(r.solo), soloBound)
	}
	if len(r.classes) == 0 || len(r.classes) > classBound {
		t.Errorf("%d job classes, catalogue bound is %d", len(r.classes), classBound)
	}
}
