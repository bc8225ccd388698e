package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestValidateSchedules: every schedule the scorers produce — on the
// shipped stream and on the legacy one — passes the independent validator.
func TestValidateSchedules(t *testing.T) {
	f, jobs := testStream(t, 160)
	streams := map[string][]Job{
		"stream": jobs,
		"legacy": legacyGenJobs(t, StreamConfig{Jobs: 160, Seed: 42, ArrivalRate: 2, MeanSize: 3}),
	}
	for name, jobs := range streams {
		for scorer, opt := range map[string]Options{
			"incremental": {},
			"naive":       naive(Options{}),
			"binpack":     {Scorer: ScorerBinpack},
		} {
			res := mustSchedule(t, f, jobs, opt)
			if err := Validate(f, jobs, res); err != nil {
				t.Errorf("%s/%s: %v", name, scorer, err)
			}
		}
	}
}

// TestValidateStudy validates the 10 000-job / 1000-machine study the
// benchmarks schedule, and pins its incremental schedule and scoring work.
func TestValidateStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("10 000-job study")
	}
	f, err := ParseFleet("400*4x2+2x2:little,600*2x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := GenJobs(StreamConfig{Jobs: 10000, Seed: 42, ArrivalRate: 60, MeanSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, scorer := range []string{ScorerIncremental, ScorerBinpack} {
		res := mustSchedule(t, f, jobs, Options{Scorer: scorer})
		if err := Validate(f, jobs, res); err != nil {
			t.Errorf("%s: %v", scorer, err)
		}
		// The incremental schedule and the work that found it are pinned:
		// a change to the probe order that moves neither keeps both.
		if scorer == ScorerIncremental && (res.Digest() != 0x790da54ad3bad15a || res.ScoredMachines != 362792) {
			t.Errorf("incremental: digest %016x scored %d, want 790da54ad3bad15a scored 362792", res.Digest(), res.ScoredMachines)
		}
	}
}

// TestValidateNamesTheViolation breaks one property of a valid schedule at a
// time and expects the validator to name it.
func TestValidateNamesTheViolation(t *testing.T) {
	f, jobs := testStream(t, 160)
	good := mustSchedule(t, f, jobs, Options{})
	if err := Validate(f, jobs, good); err != nil {
		t.Fatal(err)
	}
	// The capacity fault: job a, moved to fill group g of a machine on which
	// row b held a core of that group at the same time.
	a, b, g := -1, -1, -1
	for i := range good.Placed {
		for k := range good.Placed {
			p, q := &good.Placed[i], &good.Placed[k]
			if i == k || !(p.Start < q.Finish && q.Start < p.Finish) {
				continue
			}
			for gi, size := range f.Classes[f.MachineClass[q.Machine]].groupSize {
				if q.Dist[gi] > 0 && size <= jobs[i].MaxThreads {
					a, b, g = i, k, gi
				}
			}
		}
	}
	if a < 0 {
		t.Fatal("no two rows to build the capacity fault from")
	}
	// The finish-time fault: a row whose Finish, moved later, still ends
	// before every later start on its machine, so only its running time
	// changes.
	late := -1
	for i := range good.Placed {
		p, clear := &good.Placed[i], true
		for k := range good.Placed {
			q := &good.Placed[k]
			if q.Machine == p.Machine && q.Start >= p.Finish && q.Start <= p.Finish*(1+1e-6) {
				clear = false
			}
		}
		if clear {
			late = i
			break
		}
	}
	if late < 0 {
		t.Fatal("no row to build the finish-time fault from")
	}
	for _, tc := range []struct {
		property string
		breakIt  func(r *Result)
	}{
		{"placed once", func(r *Result) { r.Placed = r.Placed[:len(r.Placed)-1] }},
		{"placed once", func(r *Result) { r.Placed[3].JobID = 4 }},
		{"placed once", func(r *Result) { r.Placed[3].Machine = f.Machines() }},
		{"start after arrival", func(r *Result) { r.Placed[3].Start = jobs[3].Arrival - 1e-6 }},
		{"start after arrival", func(r *Result) { r.Placed[3].Finish = r.Placed[3].Start }},
		{"thread budget", func(r *Result) { r.Placed[3].Threads = jobs[3].MaxThreads + 1 }},
		{"distribution", func(r *Result) { r.Placed[3].Dist[0]++ }},
		{"distribution", func(r *Result) { r.Placed[3].Dist[maxGroups-1] = 1 }},
		{"core capacity", func(r *Result) {
			p := &r.Placed[a]
			p.Machine = r.Placed[b].Machine
			p.Threads = f.Classes[f.MachineClass[p.Machine]].groupSize[g]
			p.Dist = distVec{}
			p.Dist[g] = int8(p.Threads)
		}},
		{"solo time", func(r *Result) { r.Placed[3].SoloSec *= 1 + 1e-9 }},
		{"finish time", func(r *Result) { r.Placed[late].Finish *= 1 + 1e-6 }},
		{"slowdown", func(r *Result) { r.Placed[3].Slowdown *= 1 + 1e-9 }},
		{"QoS bound", func(r *Result) {
			p := &r.Placed[3]
			p.Finish = p.Start + 1.3*p.SoloSec
			p.Slowdown = (p.Finish - p.Start) / p.SoloSec
		}},
		{"QoS bound", func(r *Result) { r.Violations = 1 }},
		{"makespan", func(r *Result) { r.Makespan *= 2 }},
		{"energy", func(r *Result) { r.EnergyJ *= 1 + 1e-6 }},
		{"energy", func(r *Result) { r.ED2 *= 2 }},
	} {
		bad := *good
		bad.Placed = slices.Clone(good.Placed)
		tc.breakIt(&bad)
		err := Validate(f, jobs, &bad)
		if err == nil || !strings.Contains(err.Error(), "validate: "+tc.property+":") {
			t.Errorf("broken %q reported as: %v", tc.property, err)
		}
	}
}

// TestTemplatesNeverStale drives a run through a random interleaving of
// placements and completions and, after every event, re-derives every
// machine's resident state from its resident list alone. The shared record
// must equal a fresh recompute field for field, canonical template
// included; machines with equal resident lists must share one record; and
// every verdict a job class holds on the state must be a fresh admit of a
// fresh chooseShape.
func TestTemplatesNeverStale(t *testing.T) {
	f, jobs := testStream(t, 400)
	opt := Options{QoS: 0.25, Scorer: ScorerIncremental}
	r, err := newRun(f, jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	member := map[int32]*Job{} // a job of each class
	for i := range jobs {
		if jc := r.classOf[i]; member[jc] == nil {
			member[jc] = &jobs[i]
		}
	}
	check := func(event string) {
		t.Helper()
		byList := map[string]*resState{}
		for mi := range r.states {
			m := &r.states[mi]
			c := f.Classes[m.class]
			fresh := resState{id: m.id}
			fresh.recompute(c, m.residents)
			if !reflect.DeepEqual(*m.resState, fresh) {
				t.Fatalf("after %s: machine %d shares record %+v, its residents give %+v", event, mi, *m.resState, fresh)
			}
			list := fmt.Sprint(m.class)
			for _, pj := range m.residents {
				list += fmt.Sprintf(" %s/%d:%v", jobs[pj.id].SigKey, jobs[pj.id].MaxThreads, pj.dist)
			}
			if prev, ok := byList[list]; ok && prev != m.resState {
				t.Fatalf("after %s: machine %d has the resident list of another machine, but not its record", event, mi)
			}
			byList[list] = m.resState
			fm := &machState{class: m.class, residents: m.residents, resState: &fresh}
			for jc := range r.classes {
				row := r.classes[jc].row
				if int(m.id) >= len(row) || row[m.id] == 0 {
					continue
				}
				j := member[int32(jc)]
				dec := r.chooseShape(fm, j, r.soloBest(j))
				if want, got := r.admit(fm, j, &dec), r.verdicts[row[m.id]-1]; got != want {
					t.Fatalf("after %s: class %s/%d holds %+v on machine %d's state, a fresh admit gives %+v",
						event, j.SigKey, j.MaxThreads, got, mi, want)
				}
			}
		}
	}
	check("start")
	rng := rand.New(rand.NewSource(5))
	now, next := 0.0, 0
	for next < len(jobs) || r.live > 0 {
		now += rng.ExpFloat64()
		if next < len(jobs) && (r.live == 0 || rng.Intn(2) == 0) {
			j := &jobs[next]
			next++
			if mi, cand, ok := r.selectMachine(j); ok {
				r.place(j, mi, cand, now)
				check("a placement")
			}
			continue
		}
		var ids []int
		for id, pj := range r.byID {
			if pj != nil {
				ids = append(ids, id)
			}
		}
		r.complete(jobs, ids[rng.Intn(len(ids))], now)
		check("a completion")
	}
	if len(r.table) < 10 || len(r.verdicts) < 10 {
		t.Errorf("run passed through only %d states and holds %d verdicts", len(r.table), len(r.verdicts))
	}
}
