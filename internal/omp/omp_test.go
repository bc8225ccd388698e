package omp

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelBlocksEmpty(t *testing.T) {
	team := NewTeam(2)
	ran := false
	team.ParallelBlocks(0, func(int, int) { ran = true })
	if ran {
		t.Error("body ran for empty range")
	}
}

func TestParallelBlocksPartition(t *testing.T) {
	team := NewTeam(3)
	const n = 100
	var mu sync.Mutex
	covered := make([]bool, n)
	team.ParallelBlocks(n, func(lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		for i := lo; i < hi; i++ {
			if covered[i] {
				t.Errorf("index %d covered twice", i)
			}
			covered[i] = true
		}
	})
	for i, c := range covered {
		if !c {
			t.Fatalf("index %d not covered", i)
		}
	}
}

func TestReduce(t *testing.T) {
	team := NewTeam(4)
	got := team.Reduce(func(tid, nt int) float64 {
		return float64(tid + 1)
	}, func(a, b float64) float64 { return a + b })
	if got != 1+2+3+4 {
		t.Errorf("Reduce = %g, want 10", got)
	}
}

func TestSetThreads(t *testing.T) {
	team := NewTeam(4)
	team.SetThreads(2)
	if team.Threads() != 2 {
		t.Errorf("Threads = %d", team.Threads())
	}
	count := 0
	var mu sync.Mutex
	team.ParallelRegion(func(tid, nt int) {
		if nt != 2 {
			t.Errorf("region sees %d threads", nt)
		}
		mu.Lock()
		count++
		mu.Unlock()
	})
	if count != 2 {
		t.Errorf("region ran %d members", count)
	}
	team.SetThreads(0)
	if team.Threads() != 1 {
		t.Errorf("SetThreads(0) gave %d", team.Threads())
	}
}

func TestParallelBlocksMoreThreadsThanWork(t *testing.T) {
	team := NewTeam(8)
	var hits [3]int32
	var blocks atomic.Int32
	team.ParallelBlocks(3, func(lo, hi int) {
		blocks.Add(1)
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	if got := blocks.Load(); got != 3 {
		t.Errorf("%d blocks for 3 iterations on 8 threads, want 3", got)
	}
	for i, h := range hits {
		if h != 1 {
			t.Errorf("index %d executed %d times", i, h)
		}
	}
}

func TestNewTeamDefaults(t *testing.T) {
	team := NewTeam(0)
	if team.Threads() < 1 {
		t.Error("default team empty")
	}
}
