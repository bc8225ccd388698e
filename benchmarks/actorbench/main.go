// Command actorbench is this repository's benchmark: one program that drives
// the serving path (predict, sweep, eval), leave-one-out training, the
// hetero sweep study and fleet scheduling, checks what they return, and
// prints every metric by name with its unit. See ../README.md for what each
// workload and metric means and how they interact.
//
// The driver's form, one workload per process:
//
//	actorbench --workload serve_hot --seed 7 --seconds 10 --trace 0   end-to-end metrics
//	actorbench --workload serve_hot --seed 7 --seconds 10 --trace 1   per-layer metrics
//
// The human form:
//
//	actorbench -workload all -seed 7 -out results.json    every workload, both runs, one table
//	actorbench -compare a.json b.json                      apply the bounds to two results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// sizes are the work counts a run uses. Full size is what BENCHMARK.json
// measures; the smoke test shrinks everything so all six workloads finish
// in seconds.
type sizes struct {
	setups       int           // set-up repetitions; setup_s is their median
	warmOps      int           // serving warm-up requests per set-up
	triggerEvery int           // serve_mixed: ops between Recalibrator.Trigger calls
	calibOps     int           // requests against the stub listener
	probeIters   int           // iterations of each direct layer probe
	sleeps       int           // time.Sleep(20µs) samples
	openLoop     time.Duration // length of the open-loop probe's trace
	batchWarm    int           // batch warm-up ops per set-up
	fleetJobs    int
	fleetSpec    string
	scenarios    int  // sweep_hetero: how many of the four default machines
	fastTrain    bool // train_loo on FastOptions instead of DefaultOptions
}

var fullSizes = sizes{
	setups:       5,
	warmOps:      40_000,
	triggerEvery: 100_000,
	calibOps:     30_000,
	probeIters:   20_000,
	sleeps:       200,
	openLoop:     time.Second,
	batchWarm:    2,
	fleetJobs:    10_000,
	fleetSpec:    "400*4x2+2x2:little,600*2x2",
	scenarios:    4,
}

// result is one run of one workload: the driver's result line plus what a
// human wants to read next to it.
type result struct {
	Attempted int
	Failed    int
	values    map[string]float64
	note      error  // first reason an op was counted as failed
	detail    string // sample counts and window sizes behind the numbers
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) line(specs []metricSpec) resultLine {
	return resultLine{
		Correct:   r.Failed == 0 && r.Attempted > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   report(specs, r.values),
	}
}

// traceDir is where traced runs write their spans, relative to the
// repository root run.sh runs from.
const traceDir = "benchmarks/out"

func isServing(workload string) bool {
	return workload == "serve_hot" || workload == "serve_cold" || workload == "serve_mixed"
}

// runWorkload runs one workload once, untraced or traced.
func runWorkload(name string, seed int64, seconds float64, traced bool, sz sizes, outDir string) (*result, error) {
	tracePath := filepath.Join(outDir, name+".trace.jsonl")
	switch {
	case isServing(name) && traced:
		return runServeTraced(name, seed, seconds, sz, tracePath)
	case isServing(name):
		return runServe(name, seed, seconds, sz)
	case traced:
		return runBatchTraced(name, seed, seconds, sz, tracePath)
	default:
		return runBatch(name, seed, seconds, sz)
	}
}

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := flag.String("out", "", "with -workload all: write the results JSON here")
	compare := flag.Bool("compare", false, "compare two results files given as arguments")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "actorbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if workload == "all" {
		return runAll(seed, seconds, out)
	}
	known := false
	for _, w := range workloads {
		known = known || w.Name == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 || trace < 0 || trace > 1 {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	res, err := runWorkload(workload, seed, seconds, trace == 1, fullSizes, traceDir)
	if err != nil {
		return err
	}
	specs := endToEnd
	if trace == 1 {
		specs = perLayer
	}
	line := res.line(specs)
	fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", workload, seed, res.detail)
	if res.note != nil {
		fmt.Fprintf(os.Stderr, "%s: %d of %d ops failed, first: %v\n", workload, res.Failed, res.Attempted, res.note)
	}
	for _, m := range specs {
		fmt.Printf("%-40s %14.4f %s\n", m.Name, line.Metrics[m.Name].Value, m.Unit)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}
