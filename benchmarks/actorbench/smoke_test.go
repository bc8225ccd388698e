package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeSizes shrinks every workload to a few hundred milliseconds: enough to
// drive each code path of the benchmark once, far too little to measure.
var smokeSizes = sizes{
	setups:       1,
	warmOps:      2_000,
	triggerEvery: 300,
	calibOps:     1_000,
	probeIters:   200,
	sleeps:       5,
	openLoop:     50 * time.Millisecond,
	batchWarm:    1,
	fleetJobs:    50,
	fleetSpec:    "4*4x2+2x2:little,6*2x2",
	scenarios:    1,
	fastTrain:    true,
}

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSpecMatchesBenchmarkJSON keeps the names, units, directions and bounds
// in spec.go and in BENCHMARK.json identical, in the same order.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bj.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := bj.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := bj.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
	}
}

// TestSmoke runs every workload untraced and traced at smoke scale and
// checks what the driver checks: no failed op, every named metric present
// with its unit, every end-to-end metric non-zero. Across the six traced
// runs every per-layer metric must have been measured by some workload.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	measured := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w.Name, 1, 0.2, traced, smokeSizes, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", w.Name, traced, res.Failed, res.Attempted, res.note)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			line := res.line(specs)
			if !line.Correct {
				t.Errorf("%s traced=%v: result line says not correct", w.Name, traced)
			}
			if len(line.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d specified", w.Name, traced, len(line.Metrics), len(specs))
			}
			for _, m := range specs {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or with unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, got.Value)
				}
				if traced && got.Value != 0 {
					measured[m.Name] = true
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(out, w.Name+".trace.jsonl")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
	for _, m := range perLayer {
		// A smoke-scale retrain may be rejected; every other layer metric
		// has a workload that enters its layer.
		if !measured[m.Name] && m.Name != "recal.promotions" {
			t.Errorf("per-layer metric %s read 0 on every workload", m.Name)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, nproc int, opsPerS float64) string {
		r := results{Fingerprint: fingerprint{CPUModel: "cpu", NProc: nproc}, Seconds: 10, Workloads: map[string]workloadResults{}}
		for _, w := range workloads {
			vals := map[string]float64{"setup_s": 1, "ops_per_s": opsPerS, "op_p50_us": 30, "op_p99_us": 70, "rss_mb": 40}
			r.Workloads[w.Name] = workloadResults{EndToEnd: resultLine{Correct: true, Attempted: 1, Metrics: report(endToEnd, vals)}}
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := endToEnd[1].Bound // ops_per_s
	base := write("a.json", 2, 1000)
	var sb strings.Builder
	if err := compareFiles(&sb, base, write("same.json", 2, 1000*(1-bound/2))); err != nil {
		t.Errorf("half the bound fewer ops/s must pass, got: %v", err)
	}
	if n := strings.Count(sb.String(), "\n"); n != 3+len(workloads)*len(endToEnd) {
		t.Errorf("want one row per workload and metric, got %d lines:\n%s", n, sb.String())
	}
	if err := compareFiles(&sb, base, write("slow.json", 2, 1000*(1-2*bound))); err == nil || !strings.Contains(err.Error(), "serve_hot/ops_per_s") {
		t.Errorf("twice the bound fewer ops/s must be reported as worse, got: %v", err)
	}
	if err := compareFiles(&sb, base, write("other.json", 4, 1000)); err == nil || !strings.Contains(err.Error(), "across hosts") {
		t.Errorf("a different core count must be refused, got: %v", err)
	}
}
