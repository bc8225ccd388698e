// Package omp is a small OpenMP-like runtime for Go: a persistent worker
// team executing statically scheduled parallel loops, regions and
// reductions, and a runtime-adjustable thread count — the knob ACTOR's live
// throttling turns between phases.
//
// It is the live-execution counterpart of the simulated platform: the same
// instrumentation API (internal/core's LiveTuner) drives either. Note Go
// cannot pin goroutines to specific cores portably, so placement control
// (the paper's 2a/2b distinction) exists only in the simulator; live
// throttling controls concurrency degree via team size.
package omp

import (
	"runtime"
	"sync"
)

// Team is a persistent group of workers executing parallel work items. The
// zero value is not usable; construct with NewTeam.
type Team struct {
	mu      sync.Mutex
	threads int
}

// NewTeam returns a team of n workers (n ≤ 0 selects runtime.NumCPU()).
func NewTeam(n int) *Team {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return &Team{threads: n}
}

// SetThreads changes the concurrency level used by subsequent parallel
// constructs. It is safe to call between (not within) parallel regions.
func (t *Team) SetThreads(n int) {
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.threads = n
}

// Threads returns the current concurrency level.
func (t *Team) Threads() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.threads
}

// snapshot reads the thread count exactly once at construct entry. Every
// parallel construct sizes itself from one snapshot so a concurrent
// SetThreads (ACTOR throttling between phases) cannot tear a running
// region: the construct that observed n threads starts n workers, waits
// for n workers, and reports n to every body — the next construct sees
// the new count.
func (t *Team) snapshot() int {
	return t.Threads()
}

// ParallelRegion runs fn concurrently on every team member, passing the
// member id and the team size, and returns when all members finish — an
// `omp parallel` block. The team size is snapshotted once at entry; see
// snapshot.
func (t *Team) ParallelRegion(fn func(tid, nthreads int)) {
	n := t.snapshot()
	var wg sync.WaitGroup
	wg.Add(n)
	for tid := 0; tid < n; tid++ {
		go func(tid int) {
			defer wg.Done()
			fn(tid, n)
		}(tid)
	}
	wg.Wait()
}

// ParallelBlocks statically partitions [0, n) into one block per thread and
// runs body(lo, hi) on each — `omp parallel for schedule(static)` in bulk
// form, avoiding per-iteration closure overhead for inner loops. The team size is
// snapshotted once at entry; see snapshot.
func (t *Team) ParallelBlocks(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	nt := t.snapshot()
	if nt > n {
		nt = n
	}
	chunk := (n + nt - 1) / nt
	var wg sync.WaitGroup
	for tid := 0; tid < nt; tid++ {
		lo := tid * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Reduce runs body(tid, nthreads) on every member and combines the returned
// partials with combine — an `omp parallel reduction`.
func (t *Team) Reduce(body func(tid, nthreads int) float64, combine func(a, b float64) float64) float64 {
	n := t.snapshot()
	parts := make([]float64, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for tid := 0; tid < n; tid++ {
		go func(tid int) {
			defer wg.Done()
			parts[tid] = body(tid, n)
		}(tid)
	}
	wg.Wait()
	acc := parts[0]
	for _, p := range parts[1:] {
		acc = combine(acc, p)
	}
	return acc
}
