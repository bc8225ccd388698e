package core

import (
	"math"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// Search is the empirical online-search baseline from the authors' earlier
// work ([17]): execute each candidate configuration for one probe iteration
// per phase, time it, and lock in the fastest. Its overhead grows linearly
// with the configuration space — the scaling argument the paper makes for
// prediction over search on future many-core machines — and it burns probe
// iterations on bad configurations.
type Search struct{}

// Name implements Strategy.
func (s *Search) Name() string { return "search" }

// Run implements Strategy.
func (s *Search) Run(b *workload.Benchmark, env *Env) (RunResult, error) {
	policies := make([]phasePolicy, len(b.Phases))
	for i := range policies {
		policies[i] = &searchPolicy{env: env}
	}
	return execute(s.Name(), b, env, policies)
}

// searchPolicy probes configurations in order, one iteration each,
// recording measured times, then locks the fastest.
type searchPolicy struct {
	env     *Env
	tried   int // probe executions so far: the index of the next candidate
	times   []float64
	decided bool
	choice  topology.Placement
}

func (sp *searchPolicy) place(int) topology.Placement {
	if sp.decided {
		return sp.choice
	}
	cfg := min(sp.tried, len(sp.env.Configs)-1)
	return sp.env.Configs[cfg]
}

func (sp *searchPolicy) observe(_ int, res machine.Result) error {
	if sp.decided {
		return nil
	}
	if sp.times == nil {
		sp.times = make([]float64, len(sp.env.Configs))
	}
	sp.times[sp.tried] = res.TimeSec
	sp.tried++
	if sp.tried == len(sp.env.Configs) {
		best, bestT := 0, math.Inf(1)
		for i, t := range sp.times {
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
