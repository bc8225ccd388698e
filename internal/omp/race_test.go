package omp

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestSetThreadsRacesParallelRegion drives SetThreads concurrently with
// running parallel constructs (run under `go test -race ./internal/omp/`).
// The snapshot-once contract means every construct must observe one
// consistent team size: exactly nthreads bodies run, and each body sees the
// same nthreads value.
func TestSetThreadsRacesParallelRegion(t *testing.T) {
	team := NewTeam(4)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			team.SetThreads(1 + i%8)
		}
	}()

	for iter := 0; iter < 200; iter++ {
		var ran atomic.Int64
		var sizeSeen atomic.Int64
		team.ParallelRegion(func(tid, nthreads int) {
			ran.Add(1)
			sizeSeen.CompareAndSwap(0, int64(nthreads))
			if int64(nthreads) != sizeSeen.Load() {
				t.Errorf("torn region: members saw sizes %d and %d", nthreads, sizeSeen.Load())
			}
			if tid < 0 || tid >= nthreads {
				t.Errorf("tid %d out of range [0,%d)", tid, nthreads)
			}
		})
		if ran.Load() != sizeSeen.Load() {
			t.Fatalf("region ran %d members for snapshotted size %d", ran.Load(), sizeSeen.Load())
		}
	}

	for iter := 0; iter < 200; iter++ {
		const n = 64
		var covered atomic.Int64
		team.ParallelBlocks(n, func(lo, hi int) {
			covered.Add(int64(hi - lo))
		})
		if covered.Load() != n {
			t.Fatalf("blocks covered %d of %d iterations", covered.Load(), n)
		}
	}

	stop.Store(true)
	wg.Wait()
}
