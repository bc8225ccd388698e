// Package workload defines the abstract application model consumed by the
// machine simulator and the ACTOR runtime.
//
// A Benchmark is a sequence of Phases executed for a number of outer
// iterations (timesteps), mirroring the structure of the OpenMP NAS Parallel
// Benchmarks the paper evaluates: each timestep executes every parallel
// region (phase) once. A PhaseProfile captures the architecture-independent
// characteristics that determine how a phase behaves at each concurrency
// level: instruction volume and mix, working-set size and locality,
// parallelisable fraction, synchronisation cost, and an "idiosyncrasy"
// term modelling application behaviour that is invisible to the hardware
// counters (the reason leave-one-out prediction cannot be perfect).
package workload

import "fmt"

// PhaseProfile describes one parallel region (the paper's unit of
// adaptation). All per-instruction quantities are rates in [0,1] unless
// noted otherwise.
type PhaseProfile struct {
	// Name identifies the phase within its benchmark, e.g. "rhs" or
	// "phase-3".
	Name string

	// Fingerprint is a globally unique phase identity (typically
	// "BENCH/phase"). The machine model derives a small deterministic
	// per-(phase, placement) response perturbation from it, modelling
	// application-specific configuration responses that no hardware
	// counter reveals — the irreducible error source for cross-application
	// prediction. Empty disables the perturbation.
	Fingerprint string

	// Instructions is the total dynamic instruction count of one execution
	// of the phase across all threads (the work is fixed; threads divide
	// it).
	Instructions float64

	// BaseIPC is the per-core IPC the phase achieves when all memory
	// accesses hit in L1 (its inherent ILP), typically 0.5–2.5 on Core-2
	// class hardware.
	BaseIPC float64

	// MemRefsPerInstr is the fraction of instructions that are loads or
	// stores.
	MemRefsPerInstr float64

	// LoadFraction is the fraction of memory references that are loads
	// (the rest are stores).
	LoadFraction float64

	// L1MissRate is the fraction of memory references that miss the
	// private L1 and are serviced by the L2 group.
	L1MissRate float64

	// WorkingSetBytes is the per-thread active data footprint competing
	// for L2 capacity when the phase runs single-threaded. When threads
	// share data, SharingFactor reduces aggregate pressure.
	WorkingSetBytes float64

	// SharingFactor in [0,1] is the fraction of the working set shared
	// between co-resident threads: 1 means fully shared (threads on one
	// L2 add no extra pressure), 0 means fully private (pressure scales
	// with thread count).
	SharingFactor float64

	// LocalityExp shapes the capacity miss curve: larger values mean the
	// phase degrades more steeply once its working set exceeds its cache
	// share. Typical range 0.4–2.0.
	LocalityExp float64

	// ColdMissRate is the floor fraction of L2 accesses that miss
	// regardless of capacity (compulsory/coherence misses).
	ColdMissRate float64

	// MLP is the memory-level parallelism of the phase: the average
	// number of outstanding misses that overlap, ≥ 1. High MLP hides
	// memory latency.
	MLP float64

	// ParallelFraction is the Amdahl fraction of the phase's work that
	// can execute concurrently.
	ParallelFraction float64

	// SyncCycles is the per-thread cycle cost of barriers and reductions
	// for one execution of the phase at two threads; it grows with the
	// logarithm of the thread count.
	SyncCycles float64

	// CriticalFraction is the fraction of parallel work serialised in
	// critical sections (lock contention grows with thread count).
	CriticalFraction float64

	// ChunkGranularity is the number of schedulable work chunks; load
	// imbalance appears when threads do not divide it evenly. Zero means
	// perfectly divisible work.
	ChunkGranularity int

	// BranchRate is branches per instruction; BranchMissRate the fraction
	// mispredicted.
	BranchRate     float64
	BranchMissRate float64

	// TLBMissRate is TLB misses per memory reference.
	TLBMissRate float64

	// PrefetchFriendly in [0,1] scales how much of the L2 miss latency
	// the hardware prefetcher hides. It is part of the benchmark's
	// idiosyncrasy: it affects performance but no counter reports it.
	PrefetchFriendly float64

	// StoreBandwidthBoost scales write-back bus traffic relative to the
	// read path (write-allocate + eviction traffic).
	StoreBandwidthBoost float64
}

// Validate reports the first implausible field value.
func (p *PhaseProfile) Validate() error {
	switch {
	case p.Instructions <= 0:
		return fmt.Errorf("phase %q: Instructions = %g", p.Name, p.Instructions)
	case p.BaseIPC <= 0 || p.BaseIPC > 4:
		return fmt.Errorf("phase %q: BaseIPC = %g out of (0,4]", p.Name, p.BaseIPC)
	case p.MemRefsPerInstr < 0 || p.MemRefsPerInstr > 1:
		return fmt.Errorf("phase %q: MemRefsPerInstr = %g", p.Name, p.MemRefsPerInstr)
	case p.LoadFraction < 0 || p.LoadFraction > 1:
		return fmt.Errorf("phase %q: LoadFraction = %g", p.Name, p.LoadFraction)
	case p.L1MissRate < 0 || p.L1MissRate > 1:
		return fmt.Errorf("phase %q: L1MissRate = %g", p.Name, p.L1MissRate)
	case p.WorkingSetBytes < 0:
		return fmt.Errorf("phase %q: WorkingSetBytes = %g", p.Name, p.WorkingSetBytes)
	case p.SharingFactor < 0 || p.SharingFactor > 1:
		return fmt.Errorf("phase %q: SharingFactor = %g", p.Name, p.SharingFactor)
	case p.LocalityExp <= 0:
		return fmt.Errorf("phase %q: LocalityExp = %g", p.Name, p.LocalityExp)
	case p.ColdMissRate < 0 || p.ColdMissRate > 1:
		return fmt.Errorf("phase %q: ColdMissRate = %g", p.Name, p.ColdMissRate)
	case p.MLP < 1:
		return fmt.Errorf("phase %q: MLP = %g < 1", p.Name, p.MLP)
	case p.ParallelFraction < 0 || p.ParallelFraction > 1:
		return fmt.Errorf("phase %q: ParallelFraction = %g", p.Name, p.ParallelFraction)
	case p.SyncCycles < 0:
		return fmt.Errorf("phase %q: SyncCycles = %g", p.Name, p.SyncCycles)
	case p.CriticalFraction < 0 || p.CriticalFraction > 1:
		return fmt.Errorf("phase %q: CriticalFraction = %g", p.Name, p.CriticalFraction)
	case p.BranchRate < 0 || p.BranchRate > 1:
		return fmt.Errorf("phase %q: BranchRate = %g", p.Name, p.BranchRate)
	case p.BranchMissRate < 0 || p.BranchMissRate > 1:
		return fmt.Errorf("phase %q: BranchMissRate = %g", p.Name, p.BranchMissRate)
	case p.TLBMissRate < 0 || p.TLBMissRate > 1:
		return fmt.Errorf("phase %q: TLBMissRate = %g", p.Name, p.TLBMissRate)
	case p.PrefetchFriendly < 0 || p.PrefetchFriendly > 1:
		return fmt.Errorf("phase %q: PrefetchFriendly = %g", p.Name, p.PrefetchFriendly)
	case p.StoreBandwidthBoost < 0:
		return fmt.Errorf("phase %q: StoreBandwidthBoost = %g", p.Name, p.StoreBandwidthBoost)
	}
	return nil
}

// Benchmark is an iterative application: each of Iterations timesteps runs
// every phase once, in order.
type Benchmark struct {
	// Name is the benchmark's identifier, e.g. "BT" or "IS".
	Name string
	// Phases are the parallel regions executed each timestep.
	Phases []PhaseProfile
	// Iterations is the number of outer timesteps.
	Iterations int
	// Idiosyncrasy perturbs the benchmark's response to concurrency in a
	// way no hardware counter captures (sync pattern, prefetch
	// friendliness, allocation layout). It is the per-application term
	// that bounds leave-one-out prediction accuracy. Range roughly
	// [-0.15, 0.15].
	Idiosyncrasy float64
}

// Validate checks the benchmark and all its phases.
func (b *Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("benchmark with empty name")
	}
	if len(b.Phases) == 0 {
		return fmt.Errorf("benchmark %q: no phases", b.Name)
	}
	if b.Iterations <= 0 {
		return fmt.Errorf("benchmark %q: Iterations = %d", b.Name, b.Iterations)
	}
	for i := range b.Phases {
		if err := b.Phases[i].Validate(); err != nil {
			return fmt.Errorf("benchmark %q: %w", b.Name, err)
		}
	}
	return nil
}

// PhaseNames returns the phase names in execution order.
func (b *Benchmark) PhaseNames() []string {
	names := make([]string, len(b.Phases))
	for i := range b.Phases {
		names[i] = b.Phases[i].Name
	}
	return names
}
