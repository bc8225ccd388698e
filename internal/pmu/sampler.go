package pmu

import (
	"errors"
	"fmt"
)

// CounterWidth is the number of events the PMU counts simultaneously: the
// paper's platform has two programmable counters, so its twelve events
// rotate over six rounds.
const CounterWidth = 2

// MaxSampleFraction is the paper's sampling cap: monitoring may take at
// most this fraction of an application's iterations.
const MaxSampleFraction = 0.20

// CounterFile models the PMU's CounterWidth programmable counter registers.
// Instructions and Cycles are fixed counters and always available.
type CounterFile struct {
	programmed []Event
}

// NewCounterFile returns an unprogrammed counter file.
func NewCounterFile() *CounterFile { return &CounterFile{} }

// Program selects the events counted during the next interval. It rejects
// more events than the hardware has counters for, duplicate events, and
// fixed events (which need no programming).
func (f *CounterFile) Program(events ...Event) error {
	if len(events) > CounterWidth {
		return fmt.Errorf("pmu: %d events exceed counter width %d", len(events), CounterWidth)
	}
	for i, e := range events {
		if e < 0 || int(e) >= NumEvents {
			return fmt.Errorf("pmu: unknown event %v", e)
		}
		if !e.Programmable() {
			return fmt.Errorf("pmu: %v is a fixed counter", e)
		}
		for j := 0; j < i; j++ {
			if events[j] == e {
				return fmt.Errorf("pmu: duplicate event %v", e)
			}
		}
	}
	f.programmed = append(f.programmed[:0], events...)
	return nil
}

// Read extracts the counts visible after an interval: the fixed counters
// plus only the programmed events, taken from the full ground-truth counts
// the machine model produced. This is the "you only see what you
// programmed" constraint that forces rotation.
func (f *CounterFile) Read(truth Counts) Counts {
	out := Counts{
		Instructions: truth[Instructions],
		Cycles:       truth[Cycles],
	}
	for _, e := range f.programmed {
		out[e] = truth[e]
	}
	return out
}

// RotationPlan is a schedule of event pairs across consecutive timesteps,
// respecting the counter width and the sampling budget.
type RotationPlan struct {
	// Rounds[i] lists the events programmed during timestep i.
	Rounds [][]Event
	// Events is the flattened, deduplicated event list the plan covers.
	Events []Event
}

// PlanRotation builds a rotation schedule measuring the requested events
// CounterWidth at a time, subject to a budget of at most maxRounds sampled
// timesteps (≤ 0 means unlimited). When the budget is too small for every
// event, lower-priority events (later in the list) are dropped — the
// paper's "reduced number of events" fallback.
func PlanRotation(events []Event, maxRounds int) (*RotationPlan, error) {
	var prog []Event
	var seen [NumEvents]bool
	for _, e := range events {
		if !e.Programmable() {
			continue // fixed counters are always collected
		}
		if e < 0 || int(e) >= NumEvents {
			return nil, fmt.Errorf("pmu: unknown event %v in rotation request", e)
		}
		if seen[e] {
			return nil, fmt.Errorf("pmu: duplicate event %v in rotation request", e)
		}
		seen[e] = true
		prog = append(prog, e)
	}
	need := (len(prog) + CounterWidth - 1) / CounterWidth
	if maxRounds > 0 && need > maxRounds {
		prog = prog[:maxRounds*CounterWidth]
		need = maxRounds
	}
	if len(prog) == 0 {
		// Still one round to measure IPC from the fixed counters.
		return &RotationPlan{Rounds: [][]Event{{}}, Events: nil}, nil
	}
	plan := &RotationPlan{Events: append([]Event(nil), prog...)}
	for i := 0; i < need; i++ {
		lo, hi := i*CounterWidth, (i+1)*CounterWidth
		if hi > len(prog) {
			hi = len(prog)
		}
		plan.Rounds = append(plan.Rounds, append([]Event(nil), prog[lo:hi]...))
	}
	return plan, nil
}

// Sampler drives a rotation plan over consecutive observed timesteps and
// accumulates per-cycle rates. Each call to Observe consumes the
// ground-truth counts of one timestep at the sampling configuration.
type Sampler struct {
	file   *CounterFile
	plan   *RotationPlan
	round  int
	summed [NumEvents]float64 // sum of per-cycle rates per event; IPC at Instructions
	nSeen  [NumEvents]int     // observations per event
}

// NewSampler builds a sampler for the plan on the counter file.
func NewSampler(file *CounterFile, plan *RotationPlan) *Sampler {
	return &Sampler{
		file: file,
		plan: plan,
	}
}

// Done reports whether the rotation completed a full cycle.
func (s *Sampler) Done() bool { return s.round >= len(s.plan.Rounds) }

// Observe ingests one timestep's ground-truth counts. It programs the
// counter file for the current round, reads back the visible counts, and
// accumulates rates. Observations after the plan completes are ignored.
func (s *Sampler) Observe(truth Counts) error {
	if s.Done() {
		return nil
	}
	if err := s.file.Program(s.plan.Rounds[s.round]...); err != nil {
		return err
	}
	visible := s.file.Read(truth)
	cyc := visible[Cycles]
	if cyc <= 0 {
		return errors.New("pmu: observation with zero cycles")
	}
	s.summed[Instructions] += visible[Instructions] / cyc
	s.nSeen[Instructions]++
	for _, e := range s.plan.Rounds[s.round] {
		s.summed[e] += visible[e] / cyc
		s.nSeen[e]++
	}
	s.round++
	return nil
}

// Rates returns the averaged per-cycle rates across the completed rounds,
// with Instructions the mean sampled IPC. Unmeasured events are absent.
func (s *Sampler) Rates() Rates {
	var r Rates
	for e := Event(0); int(e) < NumEvents; e++ {
		if s.nSeen[e] > 0 {
			r.Set(e, s.summed[e]/float64(s.nSeen[e]))
		}
	}
	return r
}

// SamplingBudget computes the maximum number of sampled timesteps allowed
// for an application with the given iteration count under the paper's rule
// that monitoring may consume at most maxFraction (MaxSampleFraction) of
// execution.
// At least one round is always allowed.
func SamplingBudget(iterations int, maxFraction float64) int {
	if iterations < 1 {
		return 1
	}
	b := int(maxFraction * float64(iterations))
	if b < 1 {
		b = 1
	}
	return b
}
