package fleet

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/greenhpc/actor/internal/npb"
	"github.com/greenhpc/actor/internal/parallel"
)

// legacyGenJobs is the stream generator as it was before the counter-based
// draws: a parallel.Rand per job, keyed "fleet/job/<i>". No shipped code
// draws this stream any more; it is kept because the schedules it produces
// were pinned, and a scheduler change that claims to move no schedule is
// checked against those pins (TestLegacyStreamPinned).
func legacyGenJobs(t testing.TB, cfg StreamConfig) []Job {
	t.Helper()
	const maxT = 4
	benches := npb.All()
	sort.Slice(benches, func(i, j int) bool { return benches[i].Name < benches[j].Name })
	xm := math.Max(cfg.MeanSize*(paretoAlpha-1)/paretoAlpha, 1)
	jobs := make([]Job, cfg.Jobs)
	at := 0.0
	for i := range jobs {
		rng := parallel.Rand(cfg.Seed, fmt.Sprintf("fleet/job/%d", i))
		b := benches[rng.Intn(len(benches))]
		size := math.Min(xm*math.Pow(1-rng.Float64(), -1/paretoAlpha), cfg.MeanSize*sizeCapMult)
		j := Job{
			ID: i, SigKey: b.Name, Phases: b.Phases, Idio: b.Idiosyncrasy,
			MaxThreads: 1 + rng.Intn(maxT),
			Size:       max(int(size), 1),
		}
		j.wsJ, j.shareJ = footprint(b.Phases)
		at += rng.ExpFloat64() / cfg.ArrivalRate
		j.Arrival = at
		jobs[i] = j
	}
	return jobs
}

// TestLegacyStreamPinned: digest 570c7ac66d750e18 was the fleet smoke's pin
// from the scheduler's first version until GenJobs changed its draws. The
// scheduler still returns it, under both scorers, for the stream it was
// pinned on — the standing proof that template interning and the in-order
// probe moved no schedule.
func TestLegacyStreamPinned(t *testing.T) {
	f, _ := testStream(t, 1)
	jobs := legacyGenJobs(t, StreamConfig{Jobs: 100, Seed: 42, ArrivalRate: 2, MeanSize: 3})
	for scorer, opt := range map[string]Options{"incremental": {}, "naive": naive(Options{})} {
		res := mustSchedule(t, f, jobs, opt)
		if res.Digest() != 0x570c7ac66d750e18 || res.Violations != 0 {
			t.Errorf("%s: digest %016x with %d violations, pinned 570c7ac66d750e18 with 0", scorer, res.Digest(), res.Violations)
		}
	}
}

// TestGenJobsStream: a job's draws depend on (seed, index) alone, and stay
// inside the configured ranges.
func TestGenJobsStream(t *testing.T) {
	gen := func(cfg StreamConfig) []Job {
		t.Helper()
		jobs, err := GenJobs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	cfg := StreamConfig{Jobs: 500, Seed: 9, ArrivalRate: 5, MeanSize: 4, MaxThreads: 6}
	short := gen(cfg)
	prev := runtime.GOMAXPROCS(1)
	seq := gen(cfg)
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(short, seq) {
		t.Fatal("stream depends on GOMAXPROCS")
	}
	cfg.Jobs *= 2
	long := gen(cfg)
	if !reflect.DeepEqual(short, long[:len(short)]) {
		t.Fatal("the first n jobs of a 2n-job stream are not the n-job stream")
	}
	sizeCap := int(cfg.MeanSize * sizeCapMult)
	sawMaxT := false
	for i := range long {
		j := &long[i]
		if j.ID != i || j.MaxThreads < 1 || j.MaxThreads > cfg.MaxThreads || j.Size < 1 || j.Size > sizeCap {
			t.Fatalf("job %d out of range: ID %d, budget %d of 1..%d, size %d of 1..%d", i, j.ID, j.MaxThreads, cfg.MaxThreads, j.Size, sizeCap)
		}
		if i > 0 && !(j.Arrival > long[i-1].Arrival) {
			t.Fatalf("job %d arrives at %g, job %d at %g", i, j.Arrival, i-1, long[i-1].Arrival)
		}
		sawMaxT = sawMaxT || j.MaxThreads == cfg.MaxThreads
	}
	if !sawMaxT {
		t.Errorf("no job of %d drew the full budget %d", len(long), cfg.MaxThreads)
	}
}

// TestGenJobsRefusesBadParameters: a NaN rate or mean size passes every
// ordered comparison, and a mean size whose Pareto cap does not fit an int
// overflows the size conversion; GenJobs refuses them all, and the largest
// mean size it accepts still draws sizes in range.
func TestGenJobsRefusesBadParameters(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		rate, mean float64
		want       string
	}{
		{nan, 3, "arrival rate NaN"},
		{inf, 3, "arrival rate +Inf"},
		{0, 3, "arrival rate 0"},
		{-1, 3, "arrival rate -1"},
		{2, nan, "mean size NaN"},
		{2, inf, "mean size +Inf"},
		{2, 1e300, "mean size 1e+300"},
		{2, math.MaxInt / sizeCapMult, "mean size"},
		{2, 0.5, "mean size 0.5"},
	} {
		jobs, err := GenJobs(StreamConfig{Jobs: 10, Seed: 42, ArrivalRate: tc.rate, MeanSize: tc.mean})
		if err == nil || !strings.Contains(err.Error(), tc.want) || jobs != nil {
			t.Errorf("rate %g, mean size %g: got %d jobs, %v; want an error naming %q", tc.rate, tc.mean, len(jobs), err, tc.want)
		}
	}
	mean := math.Nextafter(math.MaxInt/sizeCapMult, 0)
	jobs, err := GenJobs(StreamConfig{Jobs: 200, Seed: 42, ArrivalRate: 2, MeanSize: mean})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Size < 1 || float64(jobs[i].Size) > mean*sizeCapMult {
			t.Fatalf("mean size %g: job %d has size %d", mean, i, jobs[i].Size)
		}
	}
}

// TestGenJobsDistribution: over 10⁵ jobs the arrival process has the
// configured rate and the benchmark draw is uniform.
func TestGenJobsDistribution(t *testing.T) {
	const n, rate = 100000, 8.0
	jobs, err := GenJobs(StreamConfig{Jobs: n, Seed: 1, ArrivalRate: rate, MeanSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if gap := jobs[n-1].Arrival / n; math.Abs(gap*rate-1) > 0.03 {
		t.Errorf("mean arrival gap %.5f s, want %.5f s ± 3%%", gap, 1/rate)
	}
	counts := map[string]int{}
	for i := range jobs {
		counts[jobs[i].SigKey]++
	}
	k := len(npb.All())
	if len(counts) != k {
		t.Fatalf("drew %d distinct benchmarks of %d", len(counts), k)
	}
	p := 1 / float64(k)
	mean, sigma := n*p, math.Sqrt(n*p*(1-p))
	for name, c := range counts {
		if math.Abs(float64(c)-mean) > 3*sigma {
			t.Errorf("%s drawn %d times, want %.0f ± %.0f (3σ)", name, c, mean, 3*sigma)
		}
	}
}
