package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// results is the file -workload all writes and -compare reads: one pass over
// every workload, both runs of each, with where it was taken.
type results struct {
	Fingerprint fingerprint                `json:"fingerprint"`
	Seed        int64                      `json:"seed"`
	Seconds     float64                    `json:"seconds"`
	Workloads   map[string]workloadResults `json:"workloads"`
}

type workloadResults struct {
	EndToEnd resultLine `json:"end_to_end"`
	PerLayer resultLine `json:"per_layer"`
}

// untracedRuns is how many untraced runs of a workload one pass takes the
// median of, on seeds seed, seed+1, ...: a single ten-second run on this host
// class lands 10-30 % away from the next one.
const untracedRuns = 3

// runChild runs one workload in a process of its own (rss_mb is per
// workload, and no workload inherits another's heap) and parses its result
// line.
func runChild(self, workload string, seed int64, seconds float64, trace int) (resultLine, error) {
	var line resultLine
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return line, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, fmt.Errorf("%s (trace %d): result line does not parse: %w", workload, trace, err)
	}
	return line, nil
}

// runAll runs every workload, untraced (median of untracedRuns runs) and
// traced (one run), prints one table and, with out set, writes the results
// file.
func runAll(seed int64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := results{Fingerprint: hostFingerprint(), Seed: seed, Seconds: seconds, Workloads: map[string]workloadResults{}}
	failed := 0
	for _, w := range workloads {
		var wr workloadResults
		runs := map[string][]float64{}
		for r := 0; r < untracedRuns; r++ {
			line, err := runChild(self, w.Name, seed+int64(r), seconds, 0)
			if err != nil {
				return err
			}
			wr.EndToEnd.Attempted += line.Attempted
			wr.EndToEnd.Failed += line.Failed
			for name, m := range line.Metrics {
				runs[name] = append(runs[name], m.Value)
			}
		}
		medians := map[string]float64{}
		for name, vs := range runs {
			medians[name] = median(vs)
		}
		wr.EndToEnd.Correct = wr.EndToEnd.Failed == 0
		wr.EndToEnd.Metrics = report(endToEnd, medians)
		if wr.PerLayer, err = runChild(self, w.Name, seed, seconds, 1); err != nil {
			return err
		}
		failed += wr.EndToEnd.Failed + wr.PerLayer.Failed
		res.Workloads[w.Name] = wr
	}

	fp := res.Fingerprint
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, simd %s, commit %s\nseed %d, %gs per run, end-to-end metrics are medians of %d runs\n",
		fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.SIMD, fp.Commit, seed, seconds, untracedRuns)
	for _, w := range workloads {
		wr := res.Workloads[w.Name]
		fmt.Printf("\n%s: %d ops untraced, %d failed; %d ops traced, %d failed\n", w.Name,
			wr.EndToEnd.Attempted, wr.EndToEnd.Failed, wr.PerLayer.Attempted, wr.PerLayer.Failed)
		for _, m := range endToEnd {
			fmt.Printf("  %-40s %14.4f %s\n", m.Name, wr.EndToEnd.Metrics[m.Name].Value, m.Unit)
		}
		for _, m := range perLayer {
			// 0 means the workload does not enter the layer.
			if v := wr.PerLayer.Metrics[m.Name].Value; v != 0 {
				fmt.Printf("  %-40s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
		for _, name := range []string{"loadgen.trace_overhead_share", "loadgen.attribution_gap_share"} {
			if x := wr.PerLayer.Metrics[name].Value; x >= 0.10 {
				fmt.Printf("  WARNING: %s %.3f is not below 0.10: read this run's per-layer numbers with that in mind\n", name, x)
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

func loadResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles applies the end-to-end bounds to two results files, b
// against a, one row per workload and metric. It refuses to compare across
// hosts and returns an error when any metric is worse by more than its
// bound.
func compareFiles(w io.Writer, aPath, bPath string) error {
	a, err := loadResults(aPath)
	if err != nil {
		return err
	}
	b, err := loadResults(bPath)
	if err != nil {
		return err
	}
	fa, fb := a.Fingerprint, b.Fingerprint
	if fa.CPUModel != fb.CPUModel || fa.NProc != fb.NProc {
		return fmt.Errorf("refusing to compare across hosts: %q with %d cores against %q with %d cores",
			fa.CPUModel, fa.NProc, fb.CPUModel, fb.NProc)
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare runs of different length: %gs against %gs", a.Seconds, b.Seconds)
	}
	fmt.Fprintf(w, "a: %s (commit %s, seed %d)\nb: %s (commit %s, seed %d)\n", aPath, fa.Commit, a.Seed, bPath, fb.Commit, b.Seed)
	fmt.Fprintf(w, "%-13s %-12s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	var worse []string
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.Name].EndToEnd, b.Workloads[wl.Name].EndToEnd
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			// change > 0 is worse, whichever way the metric points.
			change := (vb - va) / va
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			if va == 0 || change > m.Bound {
				verdict = "WORSE"
				worse = append(worse, wl.Name+"/"+m.Name)
			}
			fmt.Fprintf(w, "%-13s %-12s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n", wl.Name, m.Name, va, vb, 100*change, 100*m.Bound, verdict)
		}
		if rb.Failed > ra.Failed {
			worse = append(worse, wl.Name+"/failed")
			fmt.Fprintf(w, "%-13s %-12s %14d %14d %8s %7s  WORSE\n", wl.Name, "failed", ra.Failed, rb.Failed, "", "0")
		}
	}
	if len(worse) > 0 {
		return errors.New("worse by more than the bound: " + strings.Join(worse, ", "))
	}
	return nil
}
