package actor

import (
	"context"
	"runtime"
	"time"

	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/kernels"
	"github.com/greenhpc/actor/internal/omp"
)

// LiveOptions configures RunLive, the real-computation throttling path.
// Zero values take the defaults noted per field.
type LiveOptions struct {
	// Kernel runs a single named kernel ("" = every kernel).
	Kernel string
	// Scale is the problem-size scale factor (default 2).
	Scale int
	// Steps is the number of timesteps per kernel (default 30).
	Steps int
	// MaxThreads is the highest thread count probed (default: NumCPU).
	MaxThreads int
	// Probes is the number of probe executions per candidate (default 2).
	Probes int
}

// LiveProbe is one candidate thread count's accumulated probe time.
type LiveProbe struct {
	Threads  int
	ProbeSec float64
}

// LiveResult is one kernel's outcome: the concurrency level the tuner
// locked, total elapsed time, and the per-candidate probe times (fastest
// first, equal times by thread count).
type LiveResult struct {
	Kernel     string
	Choice     int
	Steps      int
	ElapsedSec float64
	Probes     []LiveProbe
}

// RunLive throttles real Go computation: it runs the NPB-style mini-kernels
// on the omp worker team, wrapping every timestep in the live tuner's
// Begin/End instrumentation, and reports the concurrency level each kernel
// settles on. The context is checked between timesteps, so cancellation
// stops mid-kernel with the error.
func RunLive(ctx context.Context, o LiveOptions) ([]LiveResult, error) {
	if o.Scale <= 0 {
		o.Scale = 2
	}
	if o.Steps <= 0 {
		o.Steps = 30
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = runtime.NumCPU()
	}
	if o.Probes <= 0 {
		o.Probes = 2
	}
	var list []kernels.Kernel
	if o.Kernel != "" {
		k, err := kernels.ByName(o.Kernel, o.Scale)
		if err != nil {
			return nil, err
		}
		list = []kernels.Kernel{k}
	} else {
		list = kernels.All(o.Scale)
	}

	out := make([]LiveResult, 0, len(list))
	for _, k := range list {
		team := omp.NewTeam(o.MaxThreads)
		tuner, err := core.NewLiveTuner(core.DefaultCandidates(o.MaxThreads), o.Probes)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for it := 0; it < o.Steps; it++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			team.SetThreads(tuner.Begin())
			k.Step(team)
			tuner.End()
		}
		res := LiveResult{
			Kernel:     k.Name(),
			Choice:     tuner.Choice(),
			Steps:      o.Steps,
			ElapsedSec: time.Since(start).Seconds(),
		}
		for _, p := range tuner.ProbeTimes() {
			res.Probes = append(res.Probes, LiveProbe(p))
		}
		out = append(out, res)
	}
	return out, nil
}
