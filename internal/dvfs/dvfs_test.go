package dvfs

import (
	"math"
	"testing"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/npb"
	"github.com/greenhpc/actor/internal/power"
	"github.com/greenhpc/actor/internal/topology"
)

func newEvaluator(t *testing.T) *Evaluator {
	t.Helper()
	m, err := machine.New(topology.QuadCoreXeon())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(m, power.Default())
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestSpace(t *testing.T) {
	space := Space(topology.PaperConfigs(), DefaultLevels())
	if len(space) != 5*4 {
		t.Fatalf("space has %d points, want 20", len(space))
	}
	seen := map[string]bool{}
	for _, c := range space {
		if seen[c.Name()] {
			t.Errorf("duplicate config %s", c.Name())
		}
		seen[c.Name()] = true
	}
}

func TestFrequencyScalingDirections(t *testing.T) {
	ev := newEvaluator(t)
	b, _ := npb.ByName("BT")
	p := &b.Phases[0] // compute-leaning phase
	full, _ := topology.ConfigByName("4")
	tHi, eHi := ev.RunPhase(p, b.Idiosyncrasy, Config{full, 1.0})
	tLo, eLo := ev.RunPhase(p, b.Idiosyncrasy, Config{full, 2.0 / 3})
	if tLo <= tHi {
		t.Errorf("compute phase did not slow down at 2/3 clock: %g vs %g", tLo, tHi)
	}
	// Power drops superlinearly, so energy per run falls for
	// compute phases only if the slowdown is modest; at minimum power
	// must drop.
	pHi, pLo := eHi/tHi, eLo/tLo
	if pLo >= pHi {
		t.Errorf("power did not drop at lower clock: %g vs %g W", pLo, pHi)
	}
	// A memory-bound phase slows much less than the clock ratio.
	is, _ := npb.ByName("IS")
	mp := &is.Phases[0]
	mHi, _ := ev.RunPhase(mp, is.Idiosyncrasy, Config{full, 1.0})
	mLo, _ := ev.RunPhase(mp, is.Idiosyncrasy, Config{full, 2.0 / 3})
	memSlow := mLo / mHi
	cpuSlow := tLo / tHi
	if memSlow >= cpuSlow {
		t.Errorf("memory-bound phase slowed (×%.3f) as much as compute-bound (×%.3f)", memSlow, cpuSlow)
	}
}

func TestBestPerPhaseObjectives(t *testing.T) {
	ev := newEvaluator(t)
	b, _ := npb.ByName("MG")
	space := Space(topology.PaperConfigs(), DefaultLevels())

	fastest, err := ev.BestPerPhase(b, space, minTime)
	if err != nil {
		t.Fatal(err)
	}
	greenest, err := ev.BestPerPhase(b, space, minEnergy)
	if err != nil {
		t.Fatal(err)
	}
	// Time-optimal configs never run slower than energy-optimal ones.
	for pi := range b.Phases {
		tf, _ := ev.RunPhase(&b.Phases[pi], b.Idiosyncrasy, fastest[pi])
		tg, eg := ev.RunPhase(&b.Phases[pi], b.Idiosyncrasy, greenest[pi])
		_, ef := ev.RunPhase(&b.Phases[pi], b.Idiosyncrasy, fastest[pi])
		if tf > tg+1e-12 {
			t.Errorf("phase %d: minTime pick slower than minEnergy pick", pi)
		}
		if eg > ef+1e-9 {
			t.Errorf("phase %d: minEnergy pick uses more energy than minTime pick", pi)
		}
	}
}

func TestConstrainedEnergy(t *testing.T) {
	ev := newEvaluator(t)
	b, _ := npb.ByName("CG")
	space := Space(topology.PaperConfigs(), DefaultLevels())
	p := &b.Phases[0]
	// Find the fastest time first.
	best := math.Inf(1)
	for _, cfg := range space {
		tt, _ := ev.RunPhase(p, b.Idiosyncrasy, cfg)
		if tt < best {
			best = tt
		}
	}
	obj := constrainedEnergy(best, 1.10)
	// The chosen config must satisfy the 10% slack constraint.
	bestCfg := space[0]
	bestE := math.Inf(1)
	for _, cfg := range space {
		tt, e := ev.RunPhase(p, b.Idiosyncrasy, cfg)
		if s := obj(tt, e); s < bestE {
			bestE, bestCfg = s, cfg
		}
	}
	tt, _ := ev.RunPhase(p, b.Idiosyncrasy, bestCfg)
	if tt > best*1.10+1e-12 {
		t.Errorf("constrained pick %s violates slack: %g > %g", bestCfg.Name(), tt, best*1.10)
	}
}

func TestStudyOrderings(t *testing.T) {
	ev := newEvaluator(t)
	for _, name := range []string{"IS", "BT"} {
		b, _ := npb.ByName(name)
		res, err := ev.Study(b, topology.PaperConfigs(), DefaultLevels(), MinED2)
		if err != nil {
			t.Fatal(err)
		}
		base := res[AllCoresNominal]
		joint := res[Joint]
		conc := res[ConcurrencyOnly]
		dv := res[DVFSOnly]
		// Joint search can never lose to either single-knob strategy or
		// the baseline under the shared objective.
		for st, r := range map[Strategy]RunResult{ConcurrencyOnly: conc, DVFSOnly: dv, AllCoresNominal: base} {
			if joint.ED2 > r.ED2*1.0001 {
				t.Errorf("%s: joint ED2 %.0f worse than %s %.0f", name, joint.ED2, st, r.ED2)
			}
		}
		if base.PhaseConfigs == nil || joint.PhaseConfigs == nil {
			t.Error("phase configs missing")
		}
	}
}

func TestRunBenchmarkValidation(t *testing.T) {
	ev := newEvaluator(t)
	b, _ := npb.ByName("CG")
	if _, err := ev.RunBenchmark(b, nil); err == nil {
		t.Error("mismatched config count accepted")
	}
}

func TestNewEvaluatorValidation(t *testing.T) {
	if _, err := NewEvaluator(nil, nil); err == nil {
		t.Error("nil machine accepted")
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		AllCoresNominal: "all-cores@nominal",
		ConcurrencyOnly: "concurrency-only",
		DVFSOnly:        "dvfs-only",
		Joint:           "joint",
		Strategy(9):     "Strategy(9)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// Objectives of the related work's formulations, for the objective tests.
var (
	// minTime optimises pure performance.
	minTime Objective = func(t, e float64) float64 { return t }
	// minEnergy optimises pure energy.
	minEnergy Objective = func(t, e float64) float64 { return e }
)

// constrainedEnergy returns an objective minimising energy subject to the
// execution time staying within slack × the best achievable time — the Li &
// Martínez formulation ("optimize power consumption given a fixed
// performance requirement"). bestTime is the phase's minimum time over the
// space.
func constrainedEnergy(bestTime, slack float64) Objective {
	return func(t, e float64) float64 {
		if t > bestTime*slack {
			return math.Inf(1)
		}
		return e
	}
}
