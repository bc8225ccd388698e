package fleet

import (
	"fmt"
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

// TestDecisionKeyEquality: machines with equal residual state intern to one
// template id — and so share every decision key — while a difference in any
// one field of the template interns apart, and the part of a template key a
// narrow class does not use stays zero.
func TestDecisionKeyEquality(t *testing.T) {
	// Class 0 has four groups, class 1 three ([0 1 2 3] of kind 0, [4 5]
	// [6 7] of kind 1) and class 2 the same three again.
	f, err := ParseFleet("1*4x2,1*1x4+2x2:little,1*1x4+2x2:little", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newScorer(f)
	state := func(ci int, busSum, maxSens float64, views ...groupView) *machState {
		m := &machState{class: ci, resState: &resState{busSum: busSum, maxSens: maxSens}}
		copy(m.views[:], views)
		return m
	}
	intern := func(m *machState) int32 { return s.intern(m.class, m.resState) }
	views := []groupView{
		{kind: 0, free: 3, occ: 1, ws: 3e5, sensMax: 0.4, real: 0},
		{kind: 1, free: 2, occ: 0, ws: 0, sensMax: 0, real: 2},
		{kind: 1, free: 0, occ: 2, ws: 7e5, sensMax: 0.6, real: 1},
	}
	base := intern(state(1, 0.8, 0.6, views...))

	// Same residual state on another machine: only the real indices —
	// which never feed scoring — differ.
	twin := append([]groupView(nil), views...)
	twin[1].real, twin[2].real = 1, 2
	if id := intern(state(1, 0.8, 0.6, twin...)); id != base {
		t.Fatalf("equal residual states on different real groups interned apart: %d vs %d", id, base)
	}
	// The same through the scheduler's own path: one resident thread on
	// either little group of two machines.
	var onFirst, onSecond machState
	for m, g := range map[*machState]int{&onFirst: 1, &onSecond: 2} {
		pj := &placedJob{threads: 1, wsJ: 2e5, shareJ: 0.3, busJ: 0.2, sensJ: 0.5}
		pj.dist[g] = 1
		m.class, m.residents, m.resState = 1, []*placedJob{pj}, new(resState)
		m.recompute(f.Classes[1], m.residents)
	}
	if onFirst.canon(f.Classes[1])[1].real == onSecond.canon(f.Classes[1])[1].real {
		t.Fatal("test machines hold their resident on the same real group")
	}
	if a, b := intern(&onFirst), intern(&onSecond); a != b || a == base {
		t.Fatalf("mirrored machines interned to %d and %d (base %d)", a, b, base)
	}

	seen := map[int32]string{base: "base"}
	differs := func(name string, m *machState) {
		t.Helper()
		id := intern(m)
		if prev, dup := seen[id]; dup {
			t.Errorf("%s: interned to id %d, the id of %s", name, id, prev)
		}
		seen[id] = name
		if again := intern(m); again != id {
			t.Errorf("%s: interned to %d, then to %d", name, id, again)
		}
	}
	differs("class", state(2, 0.8, 0.6, views...))
	differs("busSum", state(1, 0.8000000000000002, 0.6, views...))
	differs("maxSens", state(1, 0.8, 0.7, views...))
	differs("wider class", state(0, 0.8, 0.6, append(append([]groupView(nil), views...), groupView{kind: 1, free: 2, real: 3})...))
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
			differs(fmt.Sprintf("group %d %s", gi, name), state(1, 0.8, 0.6, v...))
		}
	}
	if got, want := int(s.templates.Load()), len(seen)+1; got != want { // +1: the mirrored pair
		t.Errorf("%d ids handed out for %d distinct templates", got, want)
	}

	// A three-group class fills three groups of the key, whatever the
	// machine's array holds beyond them.
	wide := state(1, 0.8, 0.6, append(append([]groupView(nil), views...), groupView{kind: 1, free: 2, ws: 9e5, real: 3})...)
	key, _ := makeTemplateKey(1, wide.canon(f.Classes[1]), wide.busSum, wide.maxSens)
	for g := len(views); g < maxGroups; g++ {
		if key.groups[g] != (groupKey{}) {
			t.Errorf("unused group %d of the template key holds %+v", g, key.groups[g])
		}
	}
	if id := intern(wide); id != base {
		t.Errorf("state beyond the class's groups changed the id: %d vs %d", id, base)
	}

	// The decision key adds the job half.
	k := decisionKey{tmpl: base, maxT: 3, sig: "CG"}
	for name, other := range map[string]decisionKey{
		"template": {tmpl: base + 1, maxT: 3, sig: "CG"},
		"maxT":     {tmpl: base, maxT: 4, sig: "CG"},
		"sig":      {tmpl: base, maxT: 3, sig: "MG"},
	} {
		if other == k || other.hash() == k.hash() {
			t.Errorf("decision keys differing in %s collide", name)
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

// TestMemoStateBoundedByCatalogue: the solo and solo-best memos are
// grow-only, so what bounds them must be the catalogue (classes ×
// signatures × shapes), not the stream: a 1000-job run stays inside it.
// The state and template tables grow with what happened, never with what
// was probed: one idle state per class plus at most one per placement and
// one per completion, and at most one template per state. The decision
// table holds at most one entry per template, signature and budget, and the
// verdict rows at most one per state and job class.
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
	r, err := s.schedule(jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := r.res
	if res.Violations != 0 {
		t.Fatalf("%d QoS violations", res.Violations)
	}
	_, _, solo := s.solo.Stats()
	_, _, best := s.best.Stats()
	hits, _, decisions := s.decision.Stats()
	_, _, templates := s.template.Stats()
	stateBound := len(f.Classes) + 2*len(jobs)
	t.Logf("1000 jobs: solo %d/%d, best %d/%d, states %d/%d, templates %d, decision entries %d (%d hits), verdicts %d over %d job classes",
		solo, soloBound, best, bestBound, len(r.table), stateBound, templates, decisions, hits, len(r.verdicts), len(r.classes))
	if len(r.table) < len(f.Classes) || len(r.table) > stateBound || len(r.table) != res.States {
		t.Errorf("state table holds %d entries (result says %d), event bound is %d", len(r.table), res.States, stateBound)
	}
	if templates < uint64(len(f.Classes)) || templates > uint64(len(r.table)) || int(templates) != res.Templates {
		t.Errorf("template table holds %d entries (result says %d) for %d states", templates, res.Templates, len(r.table))
	}
	if len(r.verdicts) == 0 || len(r.verdicts) > len(r.table)*len(r.classes) {
		t.Errorf("%d verdicts for %d states and %d job classes", len(r.verdicts), len(r.table), len(r.classes))
	}
	if decisions > templates*uint64(bestBound) || int(decisions) != res.DecisionEntries {
		t.Errorf("decision table holds %d entries (result says %d) for %d templates", decisions, res.DecisionEntries, templates)
	}
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
