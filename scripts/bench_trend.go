// Command bench_trend prints the performance trajectory across the
// committed benchmark snapshots: for every benchmark present in any
// BENCH_<n>.json (written by scripts/bench.sh), it tabulates ns/op and
// allocs/op per snapshot plus the relative change from the first to the
// latest snapshot that has the benchmark.
//
// With -gate it additionally acts as the CI regression gate: the run fails
// (exit 1) when any benchmark's ns/op in the latest snapshot regressed by
// more than -max-regress percent against the previous snapshot. Benchmarks
// named in the -allow list (comma-separated, matched after stripping the
// -<GOMAXPROCS> suffix) are reported but never fail the gate — the escape
// hatch for intentional trade-offs. Two snapshots whose _meta.cpu differ
// were taken on different hosts; the gate refuses to compare them and
// passes.
//
// Usage:
//
//	go run scripts/bench_trend.go                  (or `make trend`)
//	go run scripts/bench_trend.go -gate            (or `make trend-gate`)
//	go run scripts/bench_trend.go -gate -max-regress 50 -allow BenchmarkFoo,BenchmarkBar
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// snapshot is one BENCH_<n>.json: benchmark name → metric name → value,
// plus the CPU model string of the host that recorded it.
type snapshot struct {
	num    int
	cpu    string
	values map[string]map[string]float64
}

// gomaxprocsSuffix strips the -<N> GOMAXPROCS suffix Go appends to
// benchmark names, so snapshots taken at different core counts still line
// up by benchmark.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func load(path string) (snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return snapshot{}, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	snap := snapshot{values: make(map[string]map[string]float64, len(raw))}
	for name, msg := range raw {
		if name == "_meta" {
			// The _meta block names the recording host's CPU and may carry
			// a loadgen snapshot (written by scripts/bench.sh via
			// actorload): open-loop serving metrics, surfaced as the
			// _loadgen pseudo-benchmark of the trend print.
			var meta struct {
				CPU     string             `json:"cpu"`
				Loadgen map[string]float64 `json:"loadgen"`
			}
			if err := json.Unmarshal(msg, &meta); err == nil {
				snap.cpu = meta.CPU
				if len(meta.Loadgen) > 0 {
					snap.values[loadgenName] = meta.Loadgen
				}
			}
			continue
		}
		var metrics map[string]float64
		if err := json.Unmarshal(msg, &metrics); err != nil {
			return snapshot{}, fmt.Errorf("%s: benchmark %q: %w", path, name, err)
		}
		snap.values[gomaxprocsSuffix.ReplaceAllString(name, "")] = metrics
	}
	return snap, nil
}

// loadgenName is the pseudo-benchmark the _meta.loadgen snapshot appears
// under. It is printed, never gated: its req_per_s is the offered rate and
// its p99_us doubles between identical runs (BENCHMARK.json carries the
// end-to-end claims).
const loadgenName = "_loadgen"

var snapshotName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

func loadSnapshots() []snapshot {
	// Glob rather than count up from 1: a pruned snapshot must not hide
	// everything after the gap.
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var snaps []snapshot
	for _, path := range paths {
		m := snapshotName.FindStringSubmatch(path)
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		snap, err := load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		snap.num = n
		snaps = append(snaps, snap)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].num < snaps[j].num })
	if len(snaps) == 0 {
		fmt.Fprintln(os.Stderr, "no BENCH_<n>.json snapshots found (run scripts/bench.sh)")
		os.Exit(1)
	}
	return snaps
}

func sortedNames(snaps []snapshot) []string {
	names := map[string]bool{}
	for _, s := range snaps {
		for name := range s.values {
			names[name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	return sorted
}

func printTrend(snaps []snapshot, names []string) {
	// The _loadgen pseudo-benchmark has its own metric set; print it in a
	// dedicated block after the micro-benchmark tables.
	var loadSnaps []snapshot
	for _, s := range snaps {
		if _, ok := s.values[loadgenName]; ok {
			loadSnaps = append(loadSnaps, s)
		}
	}
	for _, metric := range []string{"ns_per_op", "allocs_per_op"} {
		fmt.Printf("%s across snapshots:\n", metric)
		header := fmt.Sprintf("%-44s", "benchmark")
		for _, s := range snaps {
			header += fmt.Sprintf(" %14s", "BENCH_"+strconv.Itoa(s.num))
		}
		fmt.Println(header + "        Δ first→last")
		for _, name := range names {
			if name == loadgenName {
				continue
			}
			row := fmt.Sprintf("%-44s", name)
			var first, last float64
			haveFirst := false
			for _, s := range snaps {
				v, ok := s.values[name][metric]
				if !ok {
					row += fmt.Sprintf(" %14s", "-")
					continue
				}
				row += fmt.Sprintf(" %14.0f", v)
				if !haveFirst {
					first, haveFirst = v, true
				}
				last = v
			}
			if haveFirst && first > 0 {
				row += fmt.Sprintf("  %+9.1f%%", (last-first)/first*100)
			}
			fmt.Println(row)
		}
		fmt.Println()
	}
	if len(loadSnaps) > 0 {
		fmt.Println("serving load (_meta.loadgen, via actorload) across snapshots:")
		header := fmt.Sprintf("%-44s", "metric")
		for _, s := range loadSnaps {
			header += fmt.Sprintf(" %14s", "BENCH_"+strconv.Itoa(s.num))
		}
		fmt.Println(header + "        Δ first→last")
		for _, metric := range []string{"req_per_s", "p50_us", "p99_us", "p999_us"} {
			row := fmt.Sprintf("%-44s", metric)
			var first, last float64
			haveFirst := false
			for _, s := range loadSnaps {
				v, ok := s.values[loadgenName][metric]
				if !ok {
					row += fmt.Sprintf(" %14s", "-")
					continue
				}
				row += fmt.Sprintf(" %14.0f", v)
				if !haveFirst {
					first, haveFirst = v, true
				}
				last = v
			}
			if haveFirst && first > 0 {
				row += fmt.Sprintf("  %+9.1f%%", (last-first)/first*100)
			}
			fmt.Println(row)
		}
		fmt.Println()
	}
}

// gate compares ns/op between the two most recent snapshots and returns
// false when any non-allowlisted benchmark regressed beyond maxRegressPct.
func gate(snaps []snapshot, names []string, maxRegressPct float64, allowed map[string]bool) bool {
	if len(snaps) < 2 {
		fmt.Println("trend gate: fewer than two snapshots, nothing to compare — pass")
		return true
	}
	prev, last := snaps[len(snaps)-2], snaps[len(snaps)-1]
	if prev.cpu != last.cpu {
		fmt.Printf("trend gate: BENCH_%d (%s) vs BENCH_%d (%s): different host, not comparable — pass\n",
			last.num, last.cpu, prev.num, prev.cpu)
		return true
	}
	fmt.Printf("trend gate: BENCH_%d vs BENCH_%d, ns/op regression threshold %+.0f%%\n",
		last.num, prev.num, maxRegressPct)
	ok := true
	// Benchmarks present on only one side can't be compared, but each kind
	// is reported distinctly (informationally — neither fails the gate): a
	// "new" entry is expected when a PR adds benchmarks; a "removed" entry
	// makes a regression hidden behind a rename visible in the CI log
	// rather than silently passing.
	var added, removed, odd []string
	for _, name := range names {
		if name == loadgenName {
			continue
		}
		was, okPrev := prev.values[name]["ns_per_op"]
		now, okLast := last.values[name]["ns_per_op"]
		switch {
		case okPrev && okLast && was > 0:
		case !okPrev && okLast:
			added = append(added, name)
			continue
		case okPrev && !okLast:
			removed = append(removed, name)
			continue
		default:
			// In neither compared snapshot (only older ones), or a
			// non-positive baseline.
			odd = append(odd, name)
			continue
		}
		change := (now - was) / was * 100
		if change <= maxRegressPct {
			continue
		}
		if allowed[name] {
			fmt.Printf("  ALLOWED %-44s %.0f → %.0f ns/op (%+.1f%%)\n", name, was, now, change)
			continue
		}
		fmt.Printf("  FAIL    %-44s %.0f → %.0f ns/op (%+.1f%%)\n", name, was, now, change)
		ok = false
	}
	if len(added) > 0 {
		fmt.Printf("  new in BENCH_%d (no baseline yet, informational): %s\n",
			last.num, strings.Join(added, ", "))
	}
	if len(removed) > 0 {
		fmt.Printf("  removed in BENCH_%d (check for renames hiding regressions): %s\n",
			last.num, strings.Join(removed, ", "))
	}
	if len(odd) > 0 {
		fmt.Printf("  skipped (absent from both compared snapshots or zero baseline): %s\n",
			strings.Join(odd, ", "))
	}
	if ok {
		fmt.Println("trend gate: pass")
	} else {
		fmt.Println("trend gate: FAIL — regression beyond threshold (allowlist intentional slowdowns with -allow)")
	}
	return ok
}

func main() {
	gateMode := flag.Bool("gate", false, "fail (exit 1) when ns/op regresses beyond -max-regress vs the previous snapshot")
	maxRegress := flag.Float64("max-regress", 30, "maximum tolerated ns/op regression in percent (gate mode)")
	allowList := flag.String("allow", "", "comma-separated benchmark names exempt from the gate")
	flag.Parse()

	snaps := loadSnapshots()
	names := sortedNames(snaps)

	if !*gateMode {
		printTrend(snaps, names)
		return
	}
	allowed := map[string]bool{}
	for _, name := range strings.Split(*allowList, ",") {
		if name = strings.TrimSpace(name); name != "" {
			allowed[name] = true
		}
	}
	if !gate(snaps, names, *maxRegress, allowed) {
		os.Exit(1)
	}
}
