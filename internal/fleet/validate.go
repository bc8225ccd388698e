package fleet

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/greenhpc/actor/internal/machine"
)

// Validate checks that res is a correct schedule of jobs on f, from the
// rows alone. It shares with the scheduler the specification a schedule is
// judged against — the shape space (enumerateShapes), the canonical
// placement of a shape (placementFor), the interference model
// (composeFactor, wsContribution) and the power constants — and none of
// its machinery: no run, no state table, no verdict rows, no event heap,
// and every solo time comes from an uncached machine.RunPhase solve.
// The error names the first violated property:
//
//   - the QoS bound is finite;
//   - every job is placed exactly once, on a machine of the fleet, with
//     Arrival ≤ Start < Finish;
//   - 1 ≤ Threads ≤ MaxThreads, and Dist sums to Threads within the sizes
//     of the machine's real L2 groups;
//   - no group of any machine ever hosts more threads than it has cores;
//   - SoloSec is Size × the job's fastest solo iteration over every class
//     and admissible shape (1e-12 relative);
//   - Violations counts the rows beyond 1+QoS, and is zero unless the
//     scorer is the interference-blind bin-packer;
//   - every Finish is what processor sharing gives (1e-9 relative): each
//     machine's rows, started at their Start, run Size solo iterations of
//     their shape stretched by composeFactor over the rows resident with
//     them, completions before starts at one instant;
//   - Slowdown is the running time over SoloSec;
//   - Makespan is the last Finish, and EnergyJ is the fleet's base power
//     over it plus every row's core power over its own running time.
func Validate(f *Fleet, jobs []Job, res *Result) error {
	if math.IsNaN(res.QoS) || math.IsInf(res.QoS, 0) {
		return fmt.Errorf("fleet: validate: QoS bound: %g is not finite", res.QoS)
	}
	if len(res.Placed) != len(jobs) {
		return fmt.Errorf("fleet: validate: placed once: %d rows for %d jobs", len(res.Placed), len(jobs))
	}
	v := validator{f: f, solo: map[soloKey]soloMetrics{}, best: map[bestKey]float64{}}
	for _, c := range f.Classes {
		m, err := machine.New(c.Topo)
		if err != nil {
			return fmt.Errorf("fleet: validate: class %s: %w", c.Desc, err)
		}
		m = m.WithParams(c.Model.Params())
		v.models = append(v.models, m)
		byReal := make([]groupView, len(c.groupSize))
		for g := range byReal {
			byReal[g] = groupView{kind: c.groupKind[g], free: c.groupSize[g], real: g}
		}
		v.byReal = append(v.byReal, byReal)
	}

	var makespan, coreJ float64
	violations := 0
	shapes := make([]soloMetrics, len(jobs)) // each row's shape, solved solo
	for i := range jobs {
		j, p := &jobs[i], &res.Placed[i]
		if j.ID != i || p.JobID != i {
			return fmt.Errorf("fleet: validate: placed once: row %d holds job %d of stream position %d", i, p.JobID, j.ID)
		}
		if p.Machine < 0 || p.Machine >= f.Machines() {
			return fmt.Errorf("fleet: validate: placed once: job %d on machine %d of %d", i, p.Machine, f.Machines())
		}
		if !(j.Arrival <= p.Start && p.Start < p.Finish) {
			return fmt.Errorf("fleet: validate: start after arrival: job %d arrives %g, runs [%g, %g)", i, j.Arrival, p.Start, p.Finish)
		}
		if p.Threads < 1 || p.Threads > j.MaxThreads {
			return fmt.Errorf("fleet: validate: thread budget: job %d runs %d threads, budget %d", i, p.Threads, j.MaxThreads)
		}
		ci := f.MachineClass[p.Machine]
		c := f.Classes[ci]
		sum := 0
		for g, k := range p.Dist {
			if k < 0 || (g < len(c.groupSize) && int(k) > c.groupSize[g]) || (g >= len(c.groupSize) && k != 0) {
				return fmt.Errorf("fleet: validate: distribution: job %d puts %d threads on group %d of a %s", i, k, g, c.Desc)
			}
			sum += int(k)
		}
		if sum != p.Threads {
			return fmt.Errorf("fleet: validate: distribution: job %d spreads %d threads, runs %d", i, sum, p.Threads)
		}

		solo := float64(float64(j.Size) * v.soloBest(j))
		if relDiff(p.SoloSec, solo) > 1e-12 {
			return fmt.Errorf("fleet: validate: solo time: job %d reports %.17g s, uncached solves give %.17g s", i, p.SoloSec, solo)
		}
		if p.Slowdown > (1+res.QoS)*(1+1e-9) {
			if res.Scorer != ScorerBinpack {
				return fmt.Errorf("fleet: validate: QoS bound: job %d slowed %.6f×, bound %.6f×", i, p.Slowdown, 1+res.QoS)
			}
			violations++
		}

		makespan = math.Max(makespan, p.Finish)
		shapes[i] = v.soloFor(ci, j, makeShapeKey(v.byReal[ci], p.Dist))
		coreJ += float64(float64(p.Threads) * (staticCoreW + float64(dynCoreW*(1-shapes[i].sensJ))) * (p.Finish - p.Start))
	}
	if violations != res.Violations {
		return fmt.Errorf("fleet: validate: QoS bound: %d rows beyond it, result counts %d", violations, res.Violations)
	}
	if err := v.checkCapacity(res.Placed); err != nil {
		return err
	}
	if err := v.checkFinish(jobs, res.Placed, shapes); err != nil {
		return err
	}
	for i := range res.Placed {
		p := &res.Placed[i]
		if slow := (p.Finish - p.Start) / p.SoloSec; relDiff(p.Slowdown, slow) > 1e-12 {
			return fmt.Errorf("fleet: validate: slowdown: job %d reports %.17g, rows give %.17g", i, p.Slowdown, slow)
		}
	}
	if res.Makespan != makespan {
		return fmt.Errorf("fleet: validate: makespan: result %.17g s, last finish %.17g s", res.Makespan, makespan)
	}
	energy := float64(basePowerW*float64(f.Machines())*makespan) + coreJ
	if relDiff(res.EnergyJ, energy) > 1e-9 {
		return fmt.Errorf("fleet: validate: energy: result %.17g J, rows integrate to %.17g J", res.EnergyJ, energy)
	}
	if ed2 := res.EnergyJ * res.Makespan * res.Makespan; res.ED2 != ed2 {
		return fmt.Errorf("fleet: validate: energy: ED2 %.17g is not EnergyJ × Makespan² = %.17g", res.ED2, ed2)
	}
	return nil
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// validator holds Validate's own solves: one memo-free model per class and
// plain maps over what they returned.
type validator struct {
	f      *Fleet
	models []*machine.Machine
	byReal [][]groupView // class → idle groups by real index, for makeShapeKey
	solo   map[soloKey]soloMetrics
	best   map[bestKey]float64
}

// soloFor solves job j's signature alone under shape sk on an empty class-ci
// machine, one RunPhase per phase.
func (v *validator) soloFor(ci int, j *Job, sk shapeKey) soloMetrics {
	key := soloKey{class: ci, sig: j.SigKey, shape: sk}
	if m, ok := v.solo[key]; ok {
		return m
	}
	pl := v.f.Classes[ci].placementFor(sk)
	var m soloMetrics
	var util float64
	for pi := range j.Phases {
		r := v.models[ci].RunPhase(&j.Phases[pi], j.Idio, pl)
		m.unitSec += r.TimeSec
		m.busJ += float64(r.TimeSec * r.Activity.BusUtilization)
		util += float64(r.TimeSec * r.Activity.AvgCoreUtil)
	}
	m.busJ /= m.unitSec
	m.sensJ = math.Max(1-util/m.unitSec, 0)
	v.solo[key] = m
	return m
}

// soloBest is the fastest solo iteration of j's signature over every class
// and every shape an idle machine offers within j's thread budget.
func (v *validator) soloBest(j *Job) float64 {
	key := bestKey{sig: j.SigKey, maxT: j.MaxThreads}
	if b, ok := v.best[key]; ok {
		return b
	}
	best := math.Inf(1)
	for ci := range v.f.Classes {
		idle := slices.Clone(v.byReal[ci])
		slices.SortStableFunc(idle, func(a, b groupView) int { return cmp.Compare(a.kind, b.kind) })
		for _, sh := range enumerateShapes(idle, j.MaxThreads, nil) {
			best = math.Min(best, v.soloFor(ci, j, makeShapeKey(idle, sh.dist)).unitSec)
		}
	}
	v.best[key] = best
	return best
}

// checkCapacity sweeps every machine's [Start, Finish) intervals in time
// order — a finish before a start at the same instant, as the simulator
// frees cores before it places — and counts threads per real group.
func (v *validator) checkCapacity(rows []Placed) error {
	type edge struct {
		t    float64
		sign int // −1 finish, +1 start
		row  int
	}
	edges := make([]edge, 0, 2*len(rows))
	for i := range rows {
		edges = append(edges, edge{rows[i].Start, +1, i}, edge{rows[i].Finish, -1, i})
	}
	slices.SortFunc(edges, func(a, b edge) int {
		return cmp.Or(
			cmp.Compare(rows[a.row].Machine, rows[b.row].Machine),
			cmp.Compare(a.t, b.t),
			cmp.Compare(a.sign, b.sign),
			cmp.Compare(a.row, b.row),
		)
	})
	var occ [maxGroups]int
	mi := -1
	for _, e := range edges {
		p := &rows[e.row]
		if p.Machine != mi {
			mi, occ = p.Machine, [maxGroups]int{}
		}
		c := v.f.Classes[v.f.MachineClass[mi]]
		for g, size := range c.groupSize {
			if occ[g] += e.sign * int(p.Dist[g]); occ[g] > size {
				return fmt.Errorf("fleet: validate: core capacity: machine %d group %d hosts %d threads on %d cores at t=%g (job %d starts)",
					mi, g, occ[g], size, e.t, e.row)
			}
		}
	}
	return nil
}

// checkFinish re-simulates each machine from its rows' starts alone and
// compares every Finish with the instant the simulation completes the row.
// Between events every resident row works off its remaining interference-
// free seconds at the rate 1/factor, where factor is composeFactor of the
// row's solo sensitivity, its threads' external working-set pressure in
// the groups they occupy and the machine's summed bus demand — re-derived
// over the resident rows at every start and completion. At one instant
// completions come first (the earliest, then the lowest job ID), as the
// simulator frees cores before it places.
func (v *validator) checkFinish(jobs []Job, rows []Placed, shapes []soloMetrics) error {
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(
			cmp.Compare(rows[a].Machine, rows[b].Machine),
			cmp.Compare(rows[a].Start, rows[b].Start),
			cmp.Compare(a, b),
		)
	})
	type resident struct {
		row                 int
		rem, factor, finish float64
	}
	var active []resident // by job ID
	for lo := 0; lo < len(order); {
		mi := rows[order[lo]].Machine
		hi := lo
		for hi < len(order) && rows[order[hi]].Machine == mi {
			hi++
		}
		c := v.f.Classes[v.f.MachineClass[mi]]
		now := 0.0
		for next := lo; next < hi || len(active) > 0; {
			done := -1
			for a := range active {
				if done < 0 || active[a].finish < active[done].finish {
					done = a // active is by job ID: the first of equal finishes wins
				}
			}
			start := next < hi && (done < 0 || rows[order[next]].Start < active[done].finish)
			t := 0.0
			if start {
				t = rows[order[next]].Start
			} else {
				t = active[done].finish
			}
			for a := range active {
				r := &active[a]
				if dt := t - now; dt > 0 {
					r.rem = math.Max(r.rem-dt/r.factor, 0)
				}
			}
			now = t
			if start {
				i := order[next]
				next++
				at, _ := slices.BinarySearchFunc(active, i, func(r resident, row int) int { return cmp.Compare(r.row, row) })
				active = slices.Insert(active, at, resident{row: i, rem: shapes[i].unitSec * float64(jobs[i].Size)})
			} else {
				i := active[done].row
				if relDiff(rows[i].Finish, t) > 1e-9 {
					return fmt.Errorf("fleet: validate: finish time: job %d reports %.17g s, processor sharing on machine %d finishes it at %.17g s",
						i, rows[i].Finish, mi, t)
				}
				active = slices.Delete(active, done, done+1)
			}

			var ws [maxGroups]float64
			bus := 0.0
			for _, r := range active {
				j, p := &jobs[r.row], &rows[r.row]
				bus += shapes[r.row].busJ
				for g, k := range p.Dist {
					ws[g] += wsContribution(j.wsJ, j.shareJ, int(k))
				}
			}
			for a := range active {
				r := &active[a]
				j, p := &jobs[r.row], &rows[r.row]
				ext := 0.0
				for g, k := range p.Dist {
					if k > 0 {
						ext += float64(k) * (ws[g] - wsContribution(j.wsJ, j.shareJ, int(k))) / c.l2Bytes
					}
				}
				r.factor = composeFactor(shapes[r.row].sensJ, ext/float64(p.Threads), bus)
				r.finish = t + float64(r.rem*r.factor)
			}
		}
		lo = hi
	}
	return nil
}
