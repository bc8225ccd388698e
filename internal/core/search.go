package core

import (
	"math"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// Search is the empirical online-search baseline from the authors' earlier
// work ([17]): execute each candidate configuration for a probe iteration
// per phase, time it, and lock in the fastest. Its overhead grows linearly
// with the configuration space — the scaling argument the paper makes for
// prediction over search on future many-core machines — and it burns probe
// iterations on bad configurations.
type Search struct {
	// ProbesPerConfig is how many iterations each candidate runs during
	// the search (1 in the classic scheme; more averages out noise).
	ProbesPerConfig int
}

// Name implements Strategy.
func (s *Search) Name() string { return "search" }

// Run implements Strategy.
func (s *Search) Run(b *workload.Benchmark, env *Env) (RunResult, error) {
	probes := s.ProbesPerConfig
	if probes < 1 {
		probes = 1
	}
	policies := make([]phasePolicy, len(b.Phases))
	for i := range policies {
		policies[i] = &searchPolicy{env: env, probes: probes}
	}
	return execute(s.Name(), b, env, policies)
}

// searchPolicy probes configurations in order, accumulating measured times,
// then locks the fastest.
type searchPolicy struct {
	env     *Env
	probes  int
	tried   int // total probe executions so far
	sums    []float64
	decided bool
	choice  topology.Placement
}

func (sp *searchPolicy) place(int) topology.Placement {
	if sp.decided {
		return sp.choice
	}
	cfg := sp.tried / sp.probes
	if cfg >= len(sp.env.Configs) {
		cfg = len(sp.env.Configs) - 1
	}
	return sp.env.Configs[cfg]
}

func (sp *searchPolicy) observe(_ int, res machine.Result) error {
	if sp.decided {
		return nil
	}
	if sp.sums == nil {
		sp.sums = make([]float64, len(sp.env.Configs))
	}
	cfg := sp.tried / sp.probes
	if cfg < len(sp.sums) {
		sp.sums[cfg] += res.TimeSec
	}
	sp.tried++
	if sp.tried >= sp.probes*len(sp.env.Configs) {
		best, bestT := 0, math.Inf(1)
		for i, t := range sp.sums {
			if t < bestT {
				bestT, best = t, i
			}
		}
		sp.choice = sp.env.Configs[best]
		sp.decided = true
	}
	return nil
}

func (sp *searchPolicy) sampledRounds() int { return sp.tried }

func (sp *searchPolicy) finalConfig() string {
	if sp.decided {
		return sp.choice.Name
	}
	return sp.place(0).Name
}
