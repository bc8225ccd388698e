package fleet

import (
	"runtime"
	"strings"
	"testing"

	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/npb"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// testStream is a small heterogeneous fleet plus job stream shared by the
// determinism properties.
func testStream(t *testing.T, jobs int) (*Fleet, []Job) {
	t.Helper()
	f, err := ParseFleet("12*2x2,4*1x4+2x2:little", nil)
	if err != nil {
		t.Fatal(err)
	}
	js, err := GenJobs(StreamConfig{Jobs: jobs, Seed: 42, ArrivalRate: 2, MeanSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	return f, js
}

func mustSchedule(t *testing.T, f *Fleet, jobs []Job, opt Options) *Result {
	t.Helper()
	res, err := Schedule(f, jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScorerBitIdentity is the fleet's scalar/SIMD-style contract: the
// incremental+memoized scorer and the naive re-score-everything reference
// (naive_test.go) implement one policy and must produce byte-identical
// schedules.
func TestScorerBitIdentity(t *testing.T) {
	f, jobs := testStream(t, 160)
	inc := mustSchedule(t, f, jobs, Options{Scorer: ScorerIncremental})
	nai := mustSchedule(t, f, jobs, naive(Options{}))
	if inc.Digest() != nai.Digest() {
		t.Fatalf("schedule digests diverge: incremental %x vs naive %x", inc.Digest(), nai.Digest())
	}
	for i := range inc.Placed {
		if inc.Placed[i] != nai.Placed[i] {
			t.Fatalf("row %d diverges:\nincremental %+v\nnaive       %+v", i, inc.Placed[i], nai.Placed[i])
		}
	}
	if inc.Violations != 0 || nai.Violations != 0 {
		t.Fatalf("QoS-aware scorers reported violations: inc=%d naive=%d", inc.Violations, nai.Violations)
	}
	// An empty Options.Scorer is the incremental scorer; an unknown one —
	// the retired "naive" included — is refused.
	def := mustSchedule(t, f, jobs, Options{})
	if def.Scorer != ScorerIncremental || def.Digest() != nai.Digest() {
		t.Fatalf("default scorer = %q digest %x, want incremental %x", def.Scorer, def.Digest(), nai.Digest())
	}
	for _, bad := range []string{"bogus", "naive"} {
		if _, err := Schedule(f, jobs, Options{Scorer: bad}); err == nil {
			t.Fatalf("unknown scorer %q accepted", bad)
		}
	}
	if nai.ScoredMachines <= 2*inc.ScoredMachines {
		t.Fatalf("incremental scorer did not reduce scoring work: inc=%d naive=%d",
			inc.ScoredMachines, nai.ScoredMachines)
	}
}

// TestGOMAXPROCSDeterminism: the schedule does not depend on GOMAXPROCS.
// The incremental scorer runs on the calling goroutine, so what this guards
// is the naive reference's fan-out merge and stream generation.
func TestGOMAXPROCSDeterminism(t *testing.T) {
	f, jobs := testStream(t, 120)
	par := mustSchedule(t, f, jobs, naive(Options{}))
	prev := runtime.GOMAXPROCS(1)
	_, seqJobs := testStream(t, 120)
	seq := mustSchedule(t, f, seqJobs, naive(Options{}))
	inc := mustSchedule(t, f, seqJobs, Options{})
	runtime.GOMAXPROCS(prev)
	if par.Digest() != seq.Digest() || par.Digest() != inc.Digest() {
		t.Fatalf("schedule depends on GOMAXPROCS: %x (parallel) vs %x (sequential naive) vs %x (sequential incremental)",
			par.Digest(), seq.Digest(), inc.Digest())
	}
}

// TestRepeatedRunsIdentical re-runs the same seeded stream end to end:
// stream generation and scheduling must be reproducible.
func TestRepeatedRunsIdentical(t *testing.T) {
	f1, j1 := testStream(t, 100)
	f2, j2 := testStream(t, 100)
	a := mustSchedule(t, f1, j1, Options{})
	b := mustSchedule(t, f2, j2, Options{})
	if a.Digest() != b.Digest() {
		t.Fatalf("repeated fixed-seed runs diverge: %x vs %x", a.Digest(), b.Digest())
	}
}

// TestBinpackBaseline sanity-checks the comparison baseline: it schedules
// everything and, being interference-blind, generally does worse on the
// QoS metric the study reports.
func TestBinpackBaseline(t *testing.T) {
	f, jobs := testStream(t, 120)
	bp := mustSchedule(t, f, jobs, Options{Scorer: ScorerBinpack})
	qa := mustSchedule(t, f, jobs, Options{})
	if bp.MaxSlowdown < qa.MaxSlowdown {
		t.Logf("note: binpack max slowdown %.3f below QoS-aware %.3f on this stream", bp.MaxSlowdown, qa.MaxSlowdown)
	}
	if qa.Violations != 0 {
		t.Fatalf("QoS-aware schedule has %d violations", qa.Violations)
	}
	for i := range bp.Placed {
		if bp.Placed[i].Finish <= 0 {
			t.Fatalf("binpack left job %d unfinished", i)
		}
	}
}

// sigma0 returns model parameters with the per-(phase, placement-name)
// response perturbation disabled. Fleet placements carry canonical shape
// names, the paper configs carry "1"…"4"; with the perturbation on, equal
// core sets under different names are deliberately not equal, so exact
// parity with the single-node oracle requires sigma = 0 on both sides.
func sigma0() machine.Params {
	p := machine.DefaultParams()
	p.ResponseSigma = 0
	return p
}

// TestCoSchedulingParity reproduces the pairing decision of the
// exp.CoScheduling extension on a one-machine fleet: the foreground
// benchmark gets exactly the placement core.GlobalOptimal picks among the
// paper configurations, and the background daemon co-runs on the
// complementary cores whenever the optimum leaves any free.
func TestCoSchedulingParity(t *testing.T) {
	params := sigma0()
	cls, err := NewClass("2x2", &params) // the quad-core Xeon shape
	if err != nil {
		t.Fatal(err)
	}
	truth, err := machine.New(cls.Topo)
	if err != nil {
		t.Fatal(err)
	}
	truth.SetParams(params)
	configs, err := topology.PaperConfigsOn(cls.Topo)
	if err != nil {
		t.Fatal(err)
	}

	// The daemon profile of exp.backgroundTask (unexported there).
	daemon := workload.PhaseProfile{
		Name: "sysdaemon", Fingerprint: "SYS/daemon",
		Instructions: 2e10, BaseIPC: 1.2,
		MemRefsPerInstr: 0.3, LoadFraction: 0.7, L1MissRate: 0.06,
		WorkingSetBytes: 512 * 1024, SharingFactor: 0.2, LocalityExp: 1,
		ColdMissRate: 0.1, MLP: 2, ParallelFraction: 0.95,
		SyncCycles: 1e5, BranchRate: 0.12, BranchMissRate: 0.03,
		TLBMissRate: 0.001, ChunkGranularity: 64, PrefetchFriendly: 0.5,
	}

	for _, b := range npb.All() {
		fl, err := NewFleet([]*Class{cls}, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		best, _, err := core.GlobalOptimal(b, truth, configs)
		if err != nil {
			t.Fatal(err)
		}
		jobs := []Job{
			{ID: 0, SigKey: b.Name, Phases: b.Phases, Idio: b.Idiosyncrasy,
				MaxThreads: 4, Size: b.Iterations, Arrival: 0},
			{ID: 1, SigKey: "SYS", Phases: []workload.PhaseProfile{daemon},
				MaxThreads: 4 - best.Threads(), Size: 1, Arrival: 0},
		}
		if jobs[1].MaxThreads == 0 {
			jobs[1].MaxThreads = 4 // optimum uses the whole machine: daemon must wait
		}
		for i := range jobs {
			var work, ws, share float64
			for pi := range jobs[i].Phases {
				p := &jobs[i].Phases[pi]
				work += p.Instructions
				ws += p.Instructions * p.WorkingSetBytes
				share += p.Instructions * p.SharingFactor
			}
			jobs[i].wsJ = ws / work
			jobs[i].shareJ = share / work
		}
		// A generous QoS bound isolates the placement decision: admission
		// never forces a smaller shape than the predicted optimum.
		res, err := Schedule(fl, jobs, Options{QoS: 100})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		fg := res.Placed[0]
		if fg.Threads != best.Threads() {
			t.Fatalf("%s: fleet chose %d threads, GlobalOptimal chose %q (%d threads)",
				b.Name, fg.Threads, best.Name, best.Threads())
		}
		// Same group distribution: threads per L2 group must match.
		var want distVec
		for _, c := range best.Cores {
			want[cls.Topo.GroupOf(c)]++
		}
		sortPair := func(d distVec) (int, int) {
			a, bn := int(d[0]), int(d[1])
			if a < bn {
				a, bn = bn, a
			}
			return a, bn
		}
		wa, wb := sortPair(want)
		ga, gb := sortPair(fg.Dist)
		if wa != ga || wb != gb {
			t.Fatalf("%s: fleet distribution %v does not match optimal config %q (%v)",
				b.Name, fg.Dist, best.Name, want)
		}
		bg := res.Placed[1]
		if best.Threads() < 4 {
			if bg.Start != 0 {
				t.Fatalf("%s: daemon not co-scheduled at t=0 (start %.4g)", b.Name, bg.Start)
			}
			if bg.Threads != 4-best.Threads() {
				t.Fatalf("%s: daemon got %d threads, complement has %d cores",
					b.Name, bg.Threads, 4-best.Threads())
			}
		} else if bg.Start <= 0 {
			t.Fatalf("%s: optimum uses all cores, daemon should queue (start %.4g)", b.Name, bg.Start)
		}
	}
}

// TestTreapOrder exercises the probe structure directly: after inserts and
// updates, a walk must agree with a sorted reference.
func TestTreapOrder(t *testing.T) {
	const n = 200
	tr := newMachTreap(n)
	keys := make([]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = float64((i * 37 % 50)) // many duplicate keys: index tie-break
		tr.Insert(int32(i), keys[i])
	}
	for i := 0; i < n; i += 3 {
		keys[i] = float64(i % 7)
		tr.Update(int32(i), keys[i])
	}
	var got []int32
	tr.Walk(func(i int32) bool { got = append(got, i); return true })
	if len(got) != n {
		t.Fatalf("walk visited %d of %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if keys[a] > keys[b] || (keys[a] == keys[b] && a >= b) {
			t.Fatalf("walk out of order at %d: (%.0f,%d) before (%.0f,%d)", i, keys[a], a, keys[b], b)
		}
	}
}

// TestGenJobsReproducible pins stream generation to its seed.
func TestGenJobsReproducible(t *testing.T) {
	cfg := StreamConfig{Jobs: 50, Seed: 7, ArrivalRate: 5, MeanSize: 4}
	a, err := GenJobs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenJobs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].SigKey != b[i].SigKey || a[i].Size != b[i].Size ||
			a[i].Arrival != b[i].Arrival || a[i].MaxThreads != b[i].MaxThreads {
			t.Fatalf("job %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg.Seed = 8
	c, err := GenJobs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].SigKey != c[i].SigKey || a[i].Size != c[i].Size {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical stream")
	}
}

// TestParseFleet: a term is digits, '*', descriptor — and the count is
// nothing but digits.
func TestParseFleet(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		machines int // 0: refused
	}{
		{"64*2x2", 64},
		{"12*2x2,4*1x4+2x2:little", 16},
		{" 3*2x2 , 2*4x2 ", 5},
		{"007*2x2", 7},
		{"3abc*2x2", 0}, // trailing garbage
		{"3 4*2x2", 0},  // inner whitespace
		{"+2 *2x2", 0},  // whitespace before the star
		{"+2*2x2", 0},   // sign
		{"-2*2x2", 0},   // sign
		{"*2x2", 0},     // empty count
		{" *2x2", 0},    // blank count
		{"0*2x2", 0},    // no machines
		{"2x2", 0},      // no count at all
		{"3*", 0},       // no descriptor
		{"3*2x2,", 0},   // empty term
		{"0x10*2x2", 0}, // not decimal
		{"1e3*2x2", 0},  // not an integer
		{"99999999999*2x2", 0},
		{"1048577*2x2", 0},       // one past maxSpecMachines
		{"1048576*2x2,1*2x2", 0}, // the terms add up past it
		{"1*999999x999999", 0},   // topology.ParseDesc's core limit
	} {
		f, err := ParseFleet(tc.spec, nil)
		switch {
		case tc.machines == 0 && err == nil:
			t.Errorf("ParseFleet(%q) accepted as %d machines", tc.spec, f.Machines())
		case tc.machines != 0 && err != nil:
			t.Errorf("ParseFleet(%q): %v", tc.spec, err)
		case tc.machines != 0 && f.Machines() != tc.machines:
			t.Errorf("ParseFleet(%q) built %d machines, want %d", tc.spec, f.Machines(), tc.machines)
		}
	}
	if _, err := ParseFleet("3abc*2x2", nil); err == nil || !strings.Contains(err.Error(), `bad machine count in "3abc*2x2"`) {
		t.Errorf("count error does not name the term: %v", err)
	}
	if _, err := ParseFleet("2000000000*2x2", nil); err == nil || !strings.Contains(err.Error(), "limit of 1048576 machines") {
		t.Errorf("fleet-size error does not name the limit: %v", err)
	}
}

// FuzzParseFleet: no spec panics, and an accepted spec builds as many
// machines as its counts — each read here as a bare run of digits — add up
// to.
func FuzzParseFleet(f *testing.F) {
	for _, seed := range []string{
		"64*2x2", "12*2x2,4*1x4+2x2:little", "3abc*2x2", "+2 *2x2", "*2x2", "3*",
		"2*1x4+2x2:slow(0.5,1.2)@2.4", "1*2x2,,", "9*9x9+9x9", "1*17x1",
		"999999*2x2", "2000000000*1x1", "1*999999x999999", "600000*2x2,600000*1x4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fl, err := ParseFleet(spec, nil)
		if err != nil {
			return
		}
		want := 0
		for _, term := range strings.Split(spec, ",") {
			count, _, _ := strings.Cut(strings.TrimSpace(term), "*")
			n := 0
			for i := 0; i < len(count); i++ {
				if count[i] < '0' || count[i] > '9' {
					t.Fatalf("ParseFleet(%q) accepted the count %q", spec, count)
				}
				n = 10*n + int(count[i]-'0')
			}
			want += n
		}
		if fl.Machines() != want || len(fl.MachineClass) != want {
			t.Fatalf("ParseFleet(%q) built %d machines, its counts add up to %d", spec, fl.Machines(), want)
		}
	})
}
