// Package parallel is the bounded, deterministic fan-out engine behind the
// evaluation pipeline: leave-one-out training, the figure drivers and the
// data collector all dispatch their independent (benchmark × configuration ×
// fold) tasks through ForEach/Map.
//
// Determinism contract: callers write results only to index-addressed slots
// and derive any per-task randomness from SeedFor(baseSeed, taskKey) rather
// than a shared stream, so output is bit-identical regardless of GOMAXPROCS
// or scheduling order. ForEach itself guarantees nothing about execution
// order — only that every index runs exactly once.
package parallel

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/greenhpc/actor/internal/fnv"
)

// Workers returns the fan-out width used by ForEach: GOMAXPROCS at call
// time, so tests can pin the engine to sequential execution with
// runtime.GOMAXPROCS(1).
func Workers() int { return runtime.GOMAXPROCS(0) }

// extraWorkers counts helper goroutines currently running across every
// ForEach in the process. Nested fan-outs (benchmarks × targets × folds)
// would otherwise multiply their per-level worker counts; the shared
// budget keeps total concurrency near Workers() instead of the product.
var extraWorkers atomic.Int64

// ForEach runs fn(i) for every i in [0, n), returning when all calls
// complete. The calling goroutine always executes tasks itself — so nested
// ForEach calls can never deadlock and always make progress — and helper
// goroutines are added only while the process-wide budget (Workers()−1
// extras) has room. Tasks are claimed from a shared atomic counter.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	budget := int64(Workers() - 1)
	for k := 1; k < w; k++ {
		if extraWorkers.Add(1) > budget {
			extraWorkers.Add(-1)
			break // budget exhausted: the caller's own loop picks up the rest
		}
		wg.Add(1)
		go func() {
			defer func() {
				extraWorkers.Add(-1)
				wg.Done()
			}()
			run()
		}()
	}
	run()
	wg.Wait()
}

// Map runs fn over [0, n) with ForEach and collects the results in index
// order. If any call fails, the first error (by index, not completion
// order) is returned alongside the partial results.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(n, func(i int) {
		out[i], errs[i] = fn(i)
	})
	return out, FirstError(errs)
}

// FirstError returns the lowest-index non-nil error, mirroring the error a
// sequential loop would have surfaced first.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Rand returns a private RNG seeded with SeedFor(base, key): the same
// (base, key) pair always yields the same stream, so per-task randomness
// (noise, retry jitter, fault schedules) is reproducible and independent of
// execution order. Each call returns a fresh generator; they are not safe
// for concurrent use by multiple goroutines.
func Rand(base int64, key string) *rand.Rand {
	return rand.New(rand.NewSource(SeedFor(base, key)))
}

// SeedFor derives a per-task RNG seed from a base seed and a stable task
// key (the module's FNV-1a fold over the key, internal/fnv, avalanched so
// near-identical keys give unrelated seeds, and mixed with the base). The
// same (base, key) pair always yields the same seed, decoupling each task's
// random stream from execution order.
func SeedFor(base int64, key string) int64 {
	return int64(fnv.Avalanche(fnv.String(fnv.Start, key))) ^ base
}
