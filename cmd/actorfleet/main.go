// Command actorfleet runs the cluster-scale interference-aware scheduling
// study: a seeded stream of jobs carrying NPB phase signatures arrives at
// a fleet of heterogeneous machines, and the fleet scheduler places each
// under a QoS degradation bound, reporting fleet ED², utilization and
// slowdowns against the naive bin-packing baseline.
//
//	actorfleet -fleet "600*2x2,400*4x2+2x2:little" -jobs 10000 -rate 8
//	actorfleet -jobs 100 -fleet "16*2x2" -digest   # CI smoke mode
//
// -scorer binpack runs the baseline alone. -verify re-checks every
// schedule the run produced with fleet.Validate, which shares no state
// with the scheduler, and exits 1 naming the first violated property.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/greenhpc/actor/internal/fleet"
	"github.com/greenhpc/actor/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it parses args, writes the study (or the
// digest line) to stdout and errors to stderr, and returns the exit code —
// 0 on success, 1 on a failed run, 2 on a bad flag or a positional
// argument.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("actorfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		spec     = fs.String("fleet", "64*2x2", "fleet spec: comma-separated count*topology-descriptor terms")
		jobs     = fs.Int("jobs", 1000, "number of jobs in the arrival stream")
		seed     = fs.Int64("seed", 42, "stream seed")
		rate     = fs.Float64("rate", 4, "mean arrival rate (jobs/sec)")
		meanSize = fs.Float64("meansize", 3, "mean job size in iterations (bounded Pareto)")
		qos      = fs.Float64("qos", 0.25, "QoS degradation bound (admissible slowdown = 1+qos)")
		scorer   = fs.String("scorer", "", "placement scorer: incremental or binpack (default incremental)")
		compare  = fs.Bool("compare", true, "also run the bin-packing baseline and report the delta")
		digest   = fs.Bool("digest", false, "print only the schedule digest and violation count (CI smoke mode)")
		verify   = fs.Bool("verify", false, "validate every schedule independently of the scheduler; exit 1 on the first violated property")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "actorfleet: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "actorfleet:", err)
		return 1
	}
	// fleet.Options reads a zero bound as its default, so an explicit
	// -qos 0 would schedule under 0.25 without a word.
	if *qos == 0 {
		return fail(fmt.Errorf("QoS bound %g is not positive", *qos))
	}

	f, err := fleet.ParseFleet(*spec, nil)
	if err != nil {
		return fail(err)
	}
	stream, err := fleet.GenJobs(fleet.StreamConfig{
		Jobs: *jobs, Seed: *seed, ArrivalRate: *rate, MeanSize: *meanSize,
	})
	if err != nil {
		return fail(err)
	}

	opt := fleet.Options{QoS: *qos, Scorer: *scorer}
	t0 := time.Now()
	res, err := fleet.Schedule(f, stream, opt)
	if err != nil {
		return fail(err)
	}
	wall := time.Since(t0)
	if *verify {
		if err := fleet.Validate(f, stream, res); err != nil {
			return fail(err)
		}
	}

	if *digest {
		fmt.Fprintf(stdout, "digest=%016x violations=%d scorer=%s\n", res.Digest(), res.Violations, res.Scorer)
		return 0
	}

	w := stdout
	report.Section(w, "Fleet scheduling study")
	fmt.Fprintf(w, "fleet %s (%d machines, %d cores), %d jobs, seed %d\n\n",
		*spec, f.Machines(), f.TotalCores(), *jobs, *seed)

	t := report.NewTable("schedule", "scorer", "wall", "scored", "makespan", "ED2", "util", "mean-slow", "max-slow", "mean-wait", "viol")
	row := func(r *fleet.Result, wall time.Duration) {
		t.AddRow(r.Scorer, wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", r.ScoredMachines),
			fmt.Sprintf("%.1fs", r.Makespan),
			fmt.Sprintf("%.3g", r.ED2),
			fmt.Sprintf("%.1f%%", 100*r.CoreUtil),
			fmt.Sprintf("%.3f", r.MeanSlowdown),
			fmt.Sprintf("%.3f", r.MaxSlowdown),
			fmt.Sprintf("%.2fs", r.MeanWait),
			fmt.Sprintf("%d", r.Violations))
	}
	row(res, wall)

	if *compare && res.Scorer != fleet.ScorerBinpack {
		bopt := opt
		bopt.Scorer = fleet.ScorerBinpack
		t0 = time.Now()
		bp, err := fleet.Schedule(f, stream, bopt)
		if err != nil {
			return fail(err)
		}
		row(bp, time.Since(t0))
		if *verify {
			if err := fleet.Validate(f, stream, bp); err != nil {
				return fail(err)
			}
		}
		t.Render(w)
		fmt.Fprintf(w, "\nED2 vs binpack: %.3f× (lower is better), violations %d vs %d\n",
			res.ED2/bp.ED2, res.Violations, bp.Violations)
	} else {
		t.Render(w)
	}
	fmt.Fprintf(w, "schedule digest %016x\n", res.Digest())
	return 0
}
