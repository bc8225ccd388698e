package fleet

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/greenhpc/actor/internal/npb"
	"github.com/greenhpc/actor/internal/workload"
)

// Job is one arriving unit of work: an application drawn from the
// benchmark suite (its per-phase PMU signatures are the job's identity for
// the solo table), a heavy-tailed size in outer iterations, and a moldable
// thread budget — the scheduler picks the actual thread count and
// placement, exactly as the single-node runtime picks among the paper
// configurations.
type Job struct {
	// ID is the job's position in the stream; it is the canonical
	// tie-break everywhere (event ordering, resident lists, digests).
	ID int
	// SigKey names the job's phase-signature bundle (the benchmark name);
	// jobs with equal SigKey are indistinguishable to the scorer apart
	// from size and thread budget.
	SigKey string
	// Phases are the parallel regions of one iteration.
	Phases []workload.PhaseProfile
	// Idio is the benchmark's idiosyncrasy term.
	Idio float64
	// MaxThreads is the job's moldable thread budget.
	MaxThreads int
	// Size is the number of outer iterations (heavy-tailed).
	Size int
	// Arrival is the job's arrival time in seconds.
	Arrival float64

	// wsJ/shareJ are the placement-independent footprint summary of the
	// phase bundle: the work-weighted per-thread working set and sharing
	// factor feeding cross-job L2 pressure.
	wsJ, shareJ float64
}

// StreamConfig parameterises a seeded job stream.
type StreamConfig struct {
	// Jobs is the stream length.
	Jobs int
	// Seed keys every job's draws; one seed reproduces one stream exactly.
	Seed int64
	// ArrivalRate is the mean arrival rate in jobs/sec (Poisson process).
	ArrivalRate float64
	// MeanSize is the mean job size in iterations; sizes follow a
	// bounded Pareto (alpha 1.5), so a few jobs carry much of the work.
	MeanSize float64
	// MaxThreads caps the per-job thread budget (drawn uniformly from
	// 1..MaxThreads). Zero means 4, the paper's configuration space.
	MaxThreads int
}

// paretoAlpha shapes job sizes; 1.5 gives the heavy tail the loadgen
// traces use while keeping a finite mean.
const paretoAlpha = 1.5

// sizeCapMult bounds the Pareto tail at this multiple of the mean so one
// pathological draw cannot dominate a whole study.
const sizeCapMult = 50.0

// splitmix64 is the 64-bit finaliser behind every draw of a job stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jobDraws is the private random stream of one job: splitmix64 over a
// counter that starts at a hash of (seed, job index). Job i draws the same
// numbers whatever the stream's length and whichever jobs were generated
// before it.
type jobDraws uint64

func drawsFor(seed int64, i int) jobDraws {
	return jobDraws(splitmix64(uint64(seed) ^ splitmix64(uint64(i))))
}

func (d *jobDraws) next() uint64 {
	z := splitmix64(uint64(*d))
	*d += 0x9e3779b97f4a7c15
	return z
}

// unit draws uniformly from [0, 1).
func (d *jobDraws) unit() float64 { return float64(float64(d.next()>>11) / (1 << 53)) }

// intn draws uniformly from [0, n).
func (d *jobDraws) intn(n int) int {
	hi, _ := bits.Mul64(d.next(), uint64(n))
	return int(hi)
}

// footprint summarises a phase bundle's placement-independent L2 footprint:
// the instruction-weighted per-thread working set and sharing factor.
func footprint(phases []workload.PhaseProfile) (wsJ, shareJ float64) {
	var work, ws, share float64
	for pi := range phases {
		p := &phases[pi]
		work += p.Instructions
		ws += float64(p.Instructions * p.WorkingSetBytes)
		share += float64(p.Instructions * p.SharingFactor)
	}
	return ws / work, share / work
}

// GenJobs generates the seeded arriving-job stream. Every per-job draw
// comes from the job's own jobDraws, so the stream is reproducible and each
// job's randomness is independent of generation order; only the arrival
// prefix-sum is sequential.
func GenJobs(cfg StreamConfig) ([]Job, error) {
	if cfg.Jobs <= 0 {
		return nil, fmt.Errorf("fleet: stream of %d jobs", cfg.Jobs)
	}
	// The comparisons are written to fail on NaN. A size is converted to an
	// int, so the Pareto cap must fit in one.
	if !(cfg.ArrivalRate > 0) || math.IsInf(cfg.ArrivalRate, 1) {
		return nil, fmt.Errorf("fleet: arrival rate %g is not a finite positive number", cfg.ArrivalRate)
	}
	if !(cfg.MeanSize >= 1 && cfg.MeanSize*sizeCapMult < math.MaxInt) {
		return nil, fmt.Errorf("fleet: mean size %g is not in [1, %g]", cfg.MeanSize, math.MaxInt/sizeCapMult)
	}
	maxT := cfg.MaxThreads
	if maxT == 0 {
		maxT = 4
	}
	if maxT < 1 {
		return nil, fmt.Errorf("fleet: max threads %d", maxT)
	}
	benches := npb.All()
	sort.Slice(benches, func(i, j int) bool { return benches[i].Name < benches[j].Name })
	// What a job inherits from its benchmark, built once per benchmark.
	protos := make([]Job, len(benches))
	for bi, b := range benches {
		protos[bi] = Job{SigKey: b.Name, Phases: b.Phases, Idio: b.Idiosyncrasy}
		protos[bi].wsJ, protos[bi].shareJ = footprint(b.Phases)
	}

	// Bounded Pareto with the configured mean: solve for the scale xm so
	// E[min(xm·U^(-1/a), cap)] ≈ MeanSize, using the unbounded mean
	// a·xm/(a−1) as the (slightly high) estimate — close enough for a
	// workload knob.
	xm := cfg.MeanSize * (paretoAlpha - 1) / paretoAlpha
	if xm < 1 {
		xm = 1
	}
	sizeCap := cfg.MeanSize * sizeCapMult

	jobs := make([]Job, cfg.Jobs)
	t := 0.0
	for i := range jobs {
		d := drawsFor(cfg.Seed, i)
		j := &jobs[i]
		*j = protos[d.intn(len(protos))]
		j.ID = i
		size := xm * math.Pow(1-d.unit(), -1/paretoAlpha)
		if size > sizeCap {
			size = sizeCap
		}
		j.Size = max(int(size), 1)
		j.MaxThreads = 1 + d.intn(maxT)
		// Exponential inter-arrival gap of the Poisson process.
		t += -math.Log(1-d.unit()) / cfg.ArrivalRate
		j.Arrival = t
	}
	return jobs, nil
}
