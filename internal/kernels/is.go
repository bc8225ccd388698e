package kernels

import "github.com/greenhpc/actor/internal/omp"

// IS performs a parallel counting/bucket sort of integer keys, like NPB IS:
// per-thread histogram (rank_count), prefix sums, and scatter into the
// sorted array (rank_scatter) — random-access, bandwidth-hungry phases.
type IS struct {
	keys    []int32
	sorted  []int32
	buckets int
	iter    int
}

// NewIS creates n random keys in [0, buckets).
func NewIS(n, buckets int) *IS {
	if n < 1024 {
		n = 1024
	}
	if buckets < 16 {
		buckets = 16
	}
	s := &IS{
		keys:    make([]int32, n),
		sorted:  make([]int32, n),
		buckets: buckets,
	}
	g := lcg(271828)
	for i := range s.keys {
		s.keys[i] = int32(g.next() % uint64(buckets))
	}
	return s
}

// Name implements Kernel.
func (s *IS) Name() string { return "IS" }

// Step ranks and scatters the keys once, then perturbs them
// deterministically so successive timesteps sort fresh data.
func (s *IS) Step(t *omp.Team) {
	n := len(s.keys)
	nt := t.Threads()
	// rank_count: per-thread histograms.
	hist := make([][]int32, nt)
	t.ParallelRegion(func(tid, nthreads int) {
		h := make([]int32, s.buckets)
		lo, hi := slice(n, tid, nthreads)
		for i := lo; i < hi; i++ {
			h[s.keys[i]]++
		}
		hist[tid] = h
	})
	// Global prefix sums: bucket start offsets per thread.
	offsets := make([][]int32, nt)
	for tid := range offsets {
		offsets[tid] = make([]int32, s.buckets)
	}
	var run int32
	for b := 0; b < s.buckets; b++ {
		for tid := 0; tid < nt; tid++ {
			if hist[tid] == nil {
				continue
			}
			offsets[tid][b] = run
			run += hist[tid][b]
		}
	}
	// rank_scatter: place keys at their ranked positions.
	t.ParallelRegion(func(tid, nthreads int) {
		if offsets[tid] == nil {
			return
		}
		off := make([]int32, s.buckets)
		copy(off, offsets[tid])
		lo, hi := slice(n, tid, nthreads)
		for i := lo; i < hi; i++ {
			k := s.keys[i]
			s.sorted[off[k]] = k
			off[k]++
		}
	})
	// verify + perturb for the next timestep.
	s.iter++
	g := lcg(uint64(s.iter) * 99991)
	t.ParallelBlocks(n, func(lo, hi int) {
		gg := g
		gg += lcg(lo)
		for i := lo; i < hi; i++ {
			s.keys[i] = int32((uint64(s.sorted[i]) + gg.next()) % uint64(s.buckets))
		}
	})
}

// Checksum returns a positional hash of the sorted array; monotonically
// sorted output makes it reproducible.
func (s *IS) Checksum() float64 {
	var acc uint64
	for i, k := range s.sorted {
		acc = acc*31 + uint64(k) + uint64(i%97)
		acc %= 1_000_000_007
	}
	return float64(acc)
}
