// Package npb provides workload models of the eight NAS Parallel Benchmarks
// (OpenMP, class A) the paper evaluates: BT, CG, FT, IS, LU, LU-HP, MG and
// SP. Each benchmark is a set of phase profiles (parallel regions) executed
// for the class-A iteration count.
//
// The profiles are synthetic substitutes for the real codes, calibrated
// against every quantitative fact the paper states about the suite on the
// quad-core Xeon:
//
//   - BT/FT/LU-HP scale well (class speedup ≈ 2.37; BT 2.69 at 4 cores);
//   - CG/LU/SP flatten after two loosely coupled cores (CG 1.95 at both 2b
//     and 4; the class gains only ≈ 7% from 4 cores vs 2);
//   - MG and IS degrade: MG peaks at 2b (1.29) yet only 1.11 at 4; IS loses
//     40% at 4 threads vs 1 and runs ~2× faster on loosely than tightly
//     coupled pairs (shared-L2 destruction + FSB saturation);
//   - per-phase scalability is wildly heterogeneous (SP's phase IPC maxima
//     span 0.32–4.64), which is what phase-granularity adaptation exploits.
//
// The benchmark set totals 59 phases, matching the paper's Fig. 7 phase
// population. TestCalibrationScalability, TestCalibrationPowerEnergy and
// TestSPPhaseHeterogeneity in npb_test.go pin these facts with tolerances.
package npb

import (
	"fmt"

	"github.com/greenhpc/actor/internal/workload"
)

// MB expresses working-set sizes in bytes.
const MB = 1024.0 * 1024.0

// finalize stamps each phase with its globally unique fingerprint
// ("BENCH/phase"), which seeds the machine model's per-(phase, placement)
// response perturbation.
func finalize(b *workload.Benchmark) *workload.Benchmark {
	for i := range b.Phases {
		b.Phases[i].Fingerprint = b.Name + "/" + b.Phases[i].Name
	}
	return b
}

// All returns the full benchmark suite in the paper's order.
func All() []*workload.Benchmark {
	return []*workload.Benchmark{
		BT(), CG(), FT(), IS(), LU(), LUHP(), MG(), SP(),
	}
}

// ByName returns the benchmark with the given (case-sensitive) name.
func ByName(name string) (*workload.Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("npb: unknown benchmark %q", name)
}

// Names returns the suite's benchmark names in order.
func Names() []string {
	bs := All()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	return names
}

// phase fills in universally shared defaults, leaving benchmark-specific
// fields to the literal.
func phase(p workload.PhaseProfile) workload.PhaseProfile {
	if p.LoadFraction == 0 {
		p.LoadFraction = 0.65
	}
	if p.MLP == 0 {
		p.MLP = 2
	}
	if p.LocalityExp == 0 {
		p.LocalityExp = 1
	}
	if p.ColdMissRate == 0 {
		p.ColdMissRate = 0.05
	}
	if p.BranchRate == 0 {
		p.BranchRate = 0.08
	}
	if p.BranchMissRate == 0 {
		p.BranchMissRate = 0.02
	}
	if p.TLBMissRate == 0 {
		p.TLBMissRate = 0.0005
	}
	if p.ChunkGranularity == 0 {
		p.ChunkGranularity = 64
	}
	return p
}

// BT models the block-tridiagonal solver: dense 5×5 block work with good
// locality after blocking; per-thread footprints near half an L2 create
// mild capacity contention when pairs share a cache, and moderate FSB load
// appears at full concurrency. Best-scaling code in the paper (2.69× on
// four cores with the largest power growth). 10 phases, 200 timesteps.
func BT() *workload.Benchmark {
	solve := func(name string, instr, ws, l1 float64) workload.PhaseProfile {
		return phase(workload.PhaseProfile{
			Name: name, Instructions: instr, BaseIPC: 1.8,
			MemRefsPerInstr: 0.32, L1MissRate: l1, WorkingSetBytes: ws,
			SharingFactor: 0.3, ColdMissRate: 0.15, MLP: 2.2,
			ParallelFraction: 0.995, SyncCycles: 3e5,
			PrefetchFriendly: 0.35,
		})
	}
	return finalize(&workload.Benchmark{
		Name:         "BT",
		Iterations:   200,
		Idiosyncrasy: 0.04,
		Phases: []workload.PhaseProfile{
			solve("compute_rhs", 1.05e9, 2.4*MB, 0.09),
			solve("x_solve", 9.0e8, 2.3*MB, 0.085),
			solve("y_solve", 9.0e8, 2.4*MB, 0.09),
			solve("z_solve", 9.5e8, 2.7*MB, 0.10),
			// add: streaming update, bandwidth-bound — a phase ACTOR can
			// improve by throttling even in the best-scaling benchmark.
			phase(workload.PhaseProfile{
				Name: "add", Instructions: 1.3e8, BaseIPC: 1.0,
				MemRefsPerInstr: 0.55, L1MissRate: 0.30, WorkingSetBytes: 3.2 * MB,
				SharingFactor: 0.05, ColdMissRate: 0.30, LocalityExp: 1.4,
				MLP: 4.5, ParallelFraction: 0.99, SyncCycles: 3e5,
				PrefetchFriendly: 0.55, StoreBandwidthBoost: 0.9,
			}),
			solve("txinvr", 2.2e8, 2.0*MB, 0.07),
			solve("lhsx", 3.0e8, 1.8*MB, 0.06),
			solve("lhsy", 3.0e8, 1.8*MB, 0.06),
			solve("lhsz", 3.2e8, 2.2*MB, 0.075),
			// error_norm: reduction with serialised accumulation.
			phase(workload.PhaseProfile{
				Name: "error_norm", Instructions: 1.0e8, BaseIPC: 1.2,
				MemRefsPerInstr: 0.40, L1MissRate: 0.10, WorkingSetBytes: 1.8 * MB,
				SharingFactor: 0.2, ColdMissRate: 0.15, MLP: 2.6,
				ParallelFraction: 0.94, SyncCycles: 2.5e6, CriticalFraction: 0.02,
				PrefetchFriendly: 0.6,
			}),
		},
	})
}

// CG models the conjugate-gradient kernel: irregular sparse matrix-vector
// products whose footprint fits one L2 but not half of one, with heavy FSB
// demand at full concurrency. Paper: 1.95× at both 2b and 4 — flat beyond
// two loosely coupled cores. 6 phases, 75 timesteps.
func CG() *workload.Benchmark {
	return finalize(&workload.Benchmark{
		Name:         "CG",
		Iterations:   75,
		Idiosyncrasy: -0.06,
		Phases: []workload.PhaseProfile{
			phase(workload.PhaseProfile{
				Name: "spmv", Instructions: 8.0e8, BaseIPC: 0.9,
				MemRefsPerInstr: 0.45, L1MissRate: 0.15, WorkingSetBytes: 2.9 * MB,
				SharingFactor: 0.25, ColdMissRate: 0.30, LocalityExp: 1.7,
				MLP: 3.2, ParallelFraction: 0.995, SyncCycles: 4e5,
				PrefetchFriendly: 0.3, TLBMissRate: 0.002, StoreBandwidthBoost: 0.4,
			}),
			phase(workload.PhaseProfile{
				Name: "dot_p", Instructions: 8.0e7, BaseIPC: 1.1,
				MemRefsPerInstr: 0.50, L1MissRate: 0.14, WorkingSetBytes: 1.6 * MB,
				SharingFactor: 0.15, ColdMissRate: 0.25, MLP: 4.0,
				ParallelFraction: 0.97, SyncCycles: 1.2e6, CriticalFraction: 0.01,
				PrefetchFriendly: 0.8,
			}),
			phase(workload.PhaseProfile{
				Name: "axpy_p", Instructions: 9.0e7, BaseIPC: 1.2,
				MemRefsPerInstr: 0.55, L1MissRate: 0.16, WorkingSetBytes: 1.8 * MB,
				SharingFactor: 0.1, ColdMissRate: 0.28, MLP: 4.2,
				ParallelFraction: 0.99, SyncCycles: 5e5,
				PrefetchFriendly: 0.85, StoreBandwidthBoost: 0.7,
			}),
			phase(workload.PhaseProfile{
				Name: "axpy_x", Instructions: 9.0e7, BaseIPC: 1.2,
				MemRefsPerInstr: 0.55, L1MissRate: 0.16, WorkingSetBytes: 1.8 * MB,
				SharingFactor: 0.1, ColdMissRate: 0.28, MLP: 4.2,
				ParallelFraction: 0.99, SyncCycles: 5e5,
				PrefetchFriendly: 0.85, StoreBandwidthBoost: 0.7,
			}),
			phase(workload.PhaseProfile{
				Name: "norm_r", Instructions: 7.0e7, BaseIPC: 1.1,
				MemRefsPerInstr: 0.50, L1MissRate: 0.13, WorkingSetBytes: 1.4 * MB,
				SharingFactor: 0.15, ColdMissRate: 0.22, MLP: 3.6,
				ParallelFraction: 0.96, SyncCycles: 1.4e6, CriticalFraction: 0.015,
				PrefetchFriendly: 0.8,
			}),
			phase(workload.PhaseProfile{
				Name: "precond", Instructions: 1.6e8, BaseIPC: 1.0,
				MemRefsPerInstr: 0.42, L1MissRate: 0.15, WorkingSetBytes: 2.6 * MB,
				SharingFactor: 0.2, ColdMissRate: 0.25, LocalityExp: 1.2,
				MLP: 2.8, ParallelFraction: 0.99, SyncCycles: 5e5,
				PrefetchFriendly: 0.4,
			}),
		},
	})
}

// FT models the 3-D FFT: compute-dense butterfly stages separated by
// bandwidth-hungry transposes, with prefetch-friendly strides. Scales well
// in the paper. 5 phases, 6 timesteps (class A) — a short-iteration code
// forcing a reduced sampling event set.
func FT() *workload.Benchmark {
	return finalize(&workload.Benchmark{
		Name:         "FT",
		Iterations:   6,
		Idiosyncrasy: 0.10,
		Phases: []workload.PhaseProfile{
			phase(workload.PhaseProfile{
				Name: "evolve", Instructions: 3.2e9, BaseIPC: 1.4,
				MemRefsPerInstr: 0.38, L1MissRate: 0.10, WorkingSetBytes: 2.7 * MB,
				SharingFactor: 0.15, ColdMissRate: 0.26, MLP: 3.2,
				ParallelFraction: 0.995, SyncCycles: 4e5, PrefetchFriendly: 0.6,
			}),
			phase(workload.PhaseProfile{
				Name: "fftx", Instructions: 6.5e9, BaseIPC: 1.7,
				MemRefsPerInstr: 0.30, L1MissRate: 0.07, WorkingSetBytes: 2.4 * MB,
				SharingFactor: 0.2, ColdMissRate: 0.20, MLP: 2.6,
				ParallelFraction: 0.995, SyncCycles: 4e5, PrefetchFriendly: 0.5,
			}),
			phase(workload.PhaseProfile{
				Name: "ffty", Instructions: 6.5e9, BaseIPC: 1.7,
				MemRefsPerInstr: 0.30, L1MissRate: 0.075, WorkingSetBytes: 2.5 * MB,
				SharingFactor: 0.2, ColdMissRate: 0.20, MLP: 2.6,
				ParallelFraction: 0.995, SyncCycles: 4e5, PrefetchFriendly: 0.5,
			}),
			phase(workload.PhaseProfile{
				Name: "fftz_transpose", Instructions: 7.5e9, BaseIPC: 1.3,
				MemRefsPerInstr: 0.36, L1MissRate: 0.12, WorkingSetBytes: 2.9 * MB,
				SharingFactor: 0.12, ColdMissRate: 0.30, MLP: 2.8,
				ParallelFraction: 0.995, SyncCycles: 5e5, PrefetchFriendly: 0.4,
			}),
			phase(workload.PhaseProfile{
				Name: "checksum", Instructions: 5.0e8, BaseIPC: 1.0,
				MemRefsPerInstr: 0.45, L1MissRate: 0.10, WorkingSetBytes: 1.6 * MB,
				SharingFactor: 0.15, ColdMissRate: 0.2, MLP: 3.2,
				ParallelFraction: 0.95, SyncCycles: 2e6, CriticalFraction: 0.02,
				PrefetchFriendly: 0.8,
			}),
		},
	})
}

// IS models the integer bucket sort: a streaming, extremely
// bandwidth-sensitive code whose per-thread working set nearly fills one
// L2. A single thread already drives the FSB near half capacity (high-MLP
// streaming); two threads on one L2 double each other's misses. The paper's
// most dramatic case: 2b beats 2a by ~2×, four threads lose 40% versus one.
// 3 phases, 10 timesteps (reduced event set).
func IS() *workload.Benchmark {
	return finalize(&workload.Benchmark{
		Name:         "IS",
		Iterations:   10,
		Idiosyncrasy: 0.09,
		Phases: []workload.PhaseProfile{
			phase(workload.PhaseProfile{
				Name: "rank_count", Instructions: 6.5e8, BaseIPC: 1.1,
				MemRefsPerInstr: 0.52, L1MissRate: 0.40, WorkingSetBytes: 3.5 * MB,
				SharingFactor: 0.05, ColdMissRate: 0.26, LocalityExp: 1.15,
				MLP: 12, ParallelFraction: 0.99, SyncCycles: 8e5,
				PrefetchFriendly: 0.85, TLBMissRate: 0.003, StoreBandwidthBoost: 0.9,
			}),
			phase(workload.PhaseProfile{
				Name: "rank_scatter", Instructions: 5.5e8, BaseIPC: 1.0,
				MemRefsPerInstr: 0.55, L1MissRate: 0.44, WorkingSetBytes: 3.6 * MB,
				SharingFactor: 0.05, ColdMissRate: 0.28, LocalityExp: 1.2,
				MLP: 11, ParallelFraction: 0.99, SyncCycles: 9e5,
				PrefetchFriendly: 0.8, TLBMissRate: 0.004, StoreBandwidthBoost: 1.0,
			}),
			phase(workload.PhaseProfile{
				Name: "verify", Instructions: 2.2e8, BaseIPC: 1.1,
				MemRefsPerInstr: 0.45, L1MissRate: 0.28, WorkingSetBytes: 3.0 * MB,
				SharingFactor: 0.1, ColdMissRate: 0.24, LocalityExp: 1.0,
				MLP: 9, ParallelFraction: 0.97, SyncCycles: 1e6,
				CriticalFraction: 0.02, PrefetchFriendly: 0.75,
			}),
		},
	})
}

// LU models the SSOR solver with pipelined (flag-based) wavefront
// parallelism: a lower parallel fraction and heavier synchronisation than
// the hyperplane variant, plus moderate bandwidth demand. Flat scaling
// class in the paper. 8 phases, 250 timesteps.
func LU() *workload.Benchmark {
	return finalize(&workload.Benchmark{
		Name:         "LU",
		Iterations:   250,
		Idiosyncrasy: 0.08,
		Phases: []workload.PhaseProfile{
			phase(workload.PhaseProfile{
				Name: "rhs", Instructions: 1.15e9, BaseIPC: 1.3,
				MemRefsPerInstr: 0.34, L1MissRate: 0.13, WorkingSetBytes: 2.9 * MB,
				SharingFactor: 0.2, ColdMissRate: 0.28, MLP: 2.6,
				ParallelFraction: 0.99, SyncCycles: 4e5, PrefetchFriendly: 0.4,
			}),
			phase(workload.PhaseProfile{
				Name: "jacld", Instructions: 5.5e8, BaseIPC: 1.6,
				MemRefsPerInstr: 0.28, L1MissRate: 0.09, WorkingSetBytes: 2.4 * MB,
				SharingFactor: 0.2, ColdMissRate: 0.24, MLP: 2.4,
				ParallelFraction: 0.97, SyncCycles: 5e5, PrefetchFriendly: 0.45,
			}),
			phase(workload.PhaseProfile{
				Name: "blts", Instructions: 7.5e8, BaseIPC: 1.2,
				MemRefsPerInstr: 0.32, L1MissRate: 0.10, WorkingSetBytes: 2.8 * MB,
				SharingFactor: 0.2, ColdMissRate: 0.26, MLP: 1.9,
				ParallelFraction: 0.78, SyncCycles: 3e6, CriticalFraction: 0.025,
				ChunkGranularity: 33, PrefetchFriendly: 0.3,
			}),
			phase(workload.PhaseProfile{
				Name: "jacu", Instructions: 5.5e8, BaseIPC: 1.6,
				MemRefsPerInstr: 0.28, L1MissRate: 0.09, WorkingSetBytes: 2.4 * MB,
				SharingFactor: 0.2, ColdMissRate: 0.24, MLP: 2.4,
				ParallelFraction: 0.97, SyncCycles: 5e5, PrefetchFriendly: 0.45,
			}),
			phase(workload.PhaseProfile{
				Name: "buts", Instructions: 7.5e8, BaseIPC: 1.2,
				MemRefsPerInstr: 0.32, L1MissRate: 0.10, WorkingSetBytes: 2.8 * MB,
				SharingFactor: 0.2, ColdMissRate: 0.26, MLP: 1.9,
				ParallelFraction: 0.78, SyncCycles: 3e6, CriticalFraction: 0.025,
				ChunkGranularity: 33, PrefetchFriendly: 0.3,
			}),
			phase(workload.PhaseProfile{
				Name: "add_u", Instructions: 2.2e8, BaseIPC: 1.1,
				MemRefsPerInstr: 0.5, L1MissRate: 0.18, WorkingSetBytes: 2.8 * MB,
				SharingFactor: 0.1, ColdMissRate: 0.3, LocalityExp: 1.2,
				MLP: 4.0, ParallelFraction: 0.99, SyncCycles: 4e5,
				PrefetchFriendly: 0.6, StoreBandwidthBoost: 0.8,
			}),
			phase(workload.PhaseProfile{
				Name: "l2norm", Instructions: 1.6e8, BaseIPC: 1.1,
				MemRefsPerInstr: 0.48, L1MissRate: 0.12, WorkingSetBytes: 1.8 * MB,
				SharingFactor: 0.15, ColdMissRate: 0.22, MLP: 3.2,
				ParallelFraction: 0.95, SyncCycles: 1.6e6, CriticalFraction: 0.015,
				PrefetchFriendly: 0.7,
			}),
			phase(workload.PhaseProfile{
				Name: "flux", Instructions: 6.0e8, BaseIPC: 1.4,
				MemRefsPerInstr: 0.33, L1MissRate: 0.11, WorkingSetBytes: 2.7 * MB,
				SharingFactor: 0.2, ColdMissRate: 0.26, MLP: 2.3,
				ParallelFraction: 0.98, SyncCycles: 6e5, PrefetchFriendly: 0.4,
			}),
		},
	})
}

// LUHP models LU-HP, the hyperplane formulation of LU: more exposed
// parallelism per sweep (larger parallel fraction) at the cost of frequent
// barriers on small hyperplanes; lighter bandwidth demand than LU. Scales
// well in the paper. 10 phases, 250 timesteps.
func LUHP() *workload.Benchmark {
	hp := func(name string) workload.PhaseProfile {
		return phase(workload.PhaseProfile{
			Name: name, Instructions: 4.5e8, BaseIPC: 1.4,
			MemRefsPerInstr: 0.32, L1MissRate: 0.09, WorkingSetBytes: 2.8 * MB,
			SharingFactor: 0.2, ColdMissRate: 0.26, MLP: 2.2,
			ParallelFraction: 0.99, SyncCycles: 5e6, PrefetchFriendly: 0.4,
		})
	}
	return finalize(&workload.Benchmark{
		Name:         "LU-HP",
		Iterations:   250,
		Idiosyncrasy: -0.05,
		Phases: []workload.PhaseProfile{
			phase(workload.PhaseProfile{
				Name: "rhs", Instructions: 1.15e9, BaseIPC: 1.4,
				MemRefsPerInstr: 0.34, L1MissRate: 0.10, WorkingSetBytes: 2.6 * MB,
				SharingFactor: 0.25, ColdMissRate: 0.20, MLP: 2.4,
				ParallelFraction: 0.995, SyncCycles: 4e5, PrefetchFriendly: 0.45,
			}),
			phase(workload.PhaseProfile{
				Name: "jacld", Instructions: 6.0e8, BaseIPC: 1.7,
				MemRefsPerInstr: 0.28, L1MissRate: 0.06, WorkingSetBytes: 1.8 * MB,
				SharingFactor: 0.3, ColdMissRate: 0.14, MLP: 2.4,
				ParallelFraction: 0.99, SyncCycles: 5e5, PrefetchFriendly: 0.5,
			}),
			hp("blts_hp1"),
			hp("blts_hp2"),
			phase(workload.PhaseProfile{
				Name: "jacu", Instructions: 6.0e8, BaseIPC: 1.7,
				MemRefsPerInstr: 0.28, L1MissRate: 0.06, WorkingSetBytes: 1.8 * MB,
				SharingFactor: 0.3, ColdMissRate: 0.14, MLP: 2.4,
				ParallelFraction: 0.99, SyncCycles: 5e5, PrefetchFriendly: 0.5,
			}),
			hp("buts_hp1"),
			hp("buts_hp2"),
			phase(workload.PhaseProfile{
				Name: "add_u", Instructions: 2.4e8, BaseIPC: 1.1,
				MemRefsPerInstr: 0.5, L1MissRate: 0.15, WorkingSetBytes: 2.4 * MB,
				SharingFactor: 0.1, ColdMissRate: 0.26, MLP: 4.0,
				ParallelFraction: 0.99, SyncCycles: 4e5,
				PrefetchFriendly: 0.65, StoreBandwidthBoost: 0.7,
			}),
			phase(workload.PhaseProfile{
				Name: "l2norm", Instructions: 1.8e8, BaseIPC: 1.1,
				MemRefsPerInstr: 0.48, L1MissRate: 0.11, WorkingSetBytes: 1.6 * MB,
				SharingFactor: 0.15, ColdMissRate: 0.2, MLP: 3.2,
				ParallelFraction: 0.96, SyncCycles: 1.4e6, CriticalFraction: 0.01,
				PrefetchFriendly: 0.7,
			}),
			phase(workload.PhaseProfile{
				Name: "flux", Instructions: 6.5e8, BaseIPC: 1.5,
				MemRefsPerInstr: 0.33, L1MissRate: 0.08, WorkingSetBytes: 2.0 * MB,
				SharingFactor: 0.3, ColdMissRate: 0.16, MLP: 2.3,
				ParallelFraction: 0.99, SyncCycles: 6e5, PrefetchFriendly: 0.45,
			}),
		},
	})
}

// MG models the multigrid V-cycle: streaming stencils over a grid hierarchy;
// fine grids are bandwidth-bound (high-MLP streams), coarse grids sync-bound.
// Paper: best at 2b (1.29×), only 1.11× at 4 threads. 5 phases, 4 timesteps
// (the shortest-iteration code: reduced event set).
func MG() *workload.Benchmark {
	return finalize(&workload.Benchmark{
		Name:         "MG",
		Iterations:   4,
		Idiosyncrasy: 0.10,
		Phases: []workload.PhaseProfile{
			phase(workload.PhaseProfile{
				Name: "resid", Instructions: 2.6e9, BaseIPC: 1.2,
				MemRefsPerInstr: 0.46, L1MissRate: 0.32, WorkingSetBytes: 2.9 * MB,
				SharingFactor: 0.1, ColdMissRate: 0.45, LocalityExp: 0.85,
				MLP: 8, ParallelFraction: 0.995, SyncCycles: 7e5,
				PrefetchFriendly: 0.7, StoreBandwidthBoost: 0.6,
			}),
			phase(workload.PhaseProfile{
				Name: "psinv", Instructions: 2.2e9, BaseIPC: 1.3,
				MemRefsPerInstr: 0.44, L1MissRate: 0.30, WorkingSetBytes: 2.8 * MB,
				SharingFactor: 0.1, ColdMissRate: 0.42, LocalityExp: 0.85,
				MLP: 8, ParallelFraction: 0.995, SyncCycles: 7e5,
				PrefetchFriendly: 0.7, StoreBandwidthBoost: 0.6,
			}),
			phase(workload.PhaseProfile{
				Name: "rprj3", Instructions: 9.0e8, BaseIPC: 1.1,
				MemRefsPerInstr: 0.48, L1MissRate: 0.34, WorkingSetBytes: 3.0 * MB,
				SharingFactor: 0.1, ColdMissRate: 0.45, LocalityExp: 0.85,
				MLP: 8, ParallelFraction: 0.99, SyncCycles: 9e5,
				ChunkGranularity: 48, PrefetchFriendly: 0.65, StoreBandwidthBoost: 0.7,
			}),
			phase(workload.PhaseProfile{
				Name: "interp", Instructions: 1.1e9, BaseIPC: 1.1,
				MemRefsPerInstr: 0.46, L1MissRate: 0.30, WorkingSetBytes: 2.9 * MB,
				SharingFactor: 0.1, ColdMissRate: 0.42, LocalityExp: 0.85,
				MLP: 8, ParallelFraction: 0.99, SyncCycles: 9e5,
				ChunkGranularity: 48, PrefetchFriendly: 0.7, StoreBandwidthBoost: 0.7,
			}),
			phase(workload.PhaseProfile{
				Name: "norm2u3", Instructions: 4.0e8, BaseIPC: 1.1,
				MemRefsPerInstr: 0.50, L1MissRate: 0.24, WorkingSetBytes: 2.6 * MB,
				SharingFactor: 0.15, ColdMissRate: 0.35, LocalityExp: 0.8,
				MLP: 7, ParallelFraction: 0.96, SyncCycles: 1.8e6,
				CriticalFraction: 0.02, PrefetchFriendly: 0.75,
			}),
		},
	})
}

// SP models the scalar-pentadiagonal solver: twelve parallel regions with
// radically different characters — the paper's showcase of phase
// heterogeneity (Fig. 2: per-phase best IPC spans 0.32 to 4.64, and the
// best configuration differs per phase). 12 phases, 400 timesteps.
func SP() *workload.Benchmark {
	return finalize(&workload.Benchmark{
		Name:         "SP",
		Iterations:   400,
		Idiosyncrasy: -0.08,
		Phases: []workload.PhaseProfile{
			// 1: compute_rhs — dense, scales well.
			phase(workload.PhaseProfile{
				Name: "compute_rhs", Instructions: 5.2e8, BaseIPC: 1.6,
				MemRefsPerInstr: 0.26, L1MissRate: 0.05, WorkingSetBytes: 1.6 * MB,
				SharingFactor: 0.35, ColdMissRate: 0.12, MLP: 2.6,
				ParallelFraction: 0.997, SyncCycles: 2.5e5, PrefetchFriendly: 0.6,
			}),
			// 2: txinvr — moderate.
			phase(workload.PhaseProfile{
				Name: "txinvr", Instructions: 1.6e8, BaseIPC: 1.5,
				MemRefsPerInstr: 0.32, L1MissRate: 0.08, WorkingSetBytes: 2.0 * MB,
				SharingFactor: 0.3, ColdMissRate: 0.18, MLP: 2.4,
				ParallelFraction: 0.99, SyncCycles: 3e5, PrefetchFriendly: 0.5,
			}),
			// 3: x_solve — line solve, moderate bandwidth.
			phase(workload.PhaseProfile{
				Name: "x_solve", Instructions: 3.4e8, BaseIPC: 1.3,
				MemRefsPerInstr: 0.34, L1MissRate: 0.12, WorkingSetBytes: 3.5 * MB,
				SharingFactor: 0.2, ColdMissRate: 0.30, MLP: 3.4,
				ParallelFraction: 0.99, SyncCycles: 4e5, PrefetchFriendly: 0.45,
			}),
			// 4: ninvr — small, sync-heavy: prefers fewer threads.
			phase(workload.PhaseProfile{
				Name: "ninvr", Instructions: 6.0e7, BaseIPC: 1.4,
				MemRefsPerInstr: 0.36, L1MissRate: 0.08, WorkingSetBytes: 1.4 * MB,
				SharingFactor: 0.3, ColdMissRate: 0.16, MLP: 2.2,
				ParallelFraction: 0.93, SyncCycles: 1.8e6, PrefetchFriendly: 0.5,
			}),
			// 5: y_solve.
			phase(workload.PhaseProfile{
				Name: "y_solve", Instructions: 3.4e8, BaseIPC: 1.3,
				MemRefsPerInstr: 0.34, L1MissRate: 0.13, WorkingSetBytes: 3.6 * MB,
				SharingFactor: 0.2, ColdMissRate: 0.30, MLP: 3.4,
				ParallelFraction: 0.99, SyncCycles: 4e5, PrefetchFriendly: 0.4,
			}),
			// 6: pinvr — small, sync-heavy.
			phase(workload.PhaseProfile{
				Name: "pinvr", Instructions: 6.0e7, BaseIPC: 1.4,
				MemRefsPerInstr: 0.36, L1MissRate: 0.08, WorkingSetBytes: 1.4 * MB,
				SharingFactor: 0.3, ColdMissRate: 0.16, MLP: 2.2,
				ParallelFraction: 0.93, SyncCycles: 1.8e6, PrefetchFriendly: 0.5,
			}),
			// 7: z_solve — strided: bigger footprint, poorer locality, and
			// capacity-sensitive in shared L2s.
			phase(workload.PhaseProfile{
				Name: "z_solve", Instructions: 3.8e8, BaseIPC: 1.1,
				MemRefsPerInstr: 0.38, L1MissRate: 0.18, WorkingSetBytes: 3.0 * MB,
				SharingFactor: 0.15, ColdMissRate: 0.26, LocalityExp: 1.1,
				MLP: 2.2, ParallelFraction: 0.99, SyncCycles: 4e5,
				PrefetchFriendly: 0.25,
			}),
			// 8: tzetar — moderate compute.
			phase(workload.PhaseProfile{
				Name: "tzetar", Instructions: 1.5e8, BaseIPC: 1.5,
				MemRefsPerInstr: 0.30, L1MissRate: 0.07, WorkingSetBytes: 1.6 * MB,
				SharingFactor: 0.3, ColdMissRate: 0.15, MLP: 2.4,
				ParallelFraction: 0.99, SyncCycles: 3e5, PrefetchFriendly: 0.55,
			}),
			// 9: add — pure streaming, bandwidth-bound: the 0.32-class
			// phase whose IPC collapses with more threads.
			phase(workload.PhaseProfile{
				Name: "add", Instructions: 9.0e7, BaseIPC: 0.8,
				MemRefsPerInstr: 0.60, L1MissRate: 0.45, WorkingSetBytes: 3.5 * MB,
				SharingFactor: 0.05, ColdMissRate: 0.3, LocalityExp: 1.1,
				MLP: 4.8, ParallelFraction: 0.99, SyncCycles: 5e5,
				PrefetchFriendly: 0.45, StoreBandwidthBoost: 0.9,
			}),
			// 10: rhs_norm — reduction, sync-dominated.
			phase(workload.PhaseProfile{
				Name: "rhs_norm", Instructions: 7.0e7, BaseIPC: 1.1,
				MemRefsPerInstr: 0.46, L1MissRate: 0.10, WorkingSetBytes: 1.6 * MB,
				SharingFactor: 0.15, ColdMissRate: 0.18, MLP: 2.8,
				ParallelFraction: 0.92, SyncCycles: 2.2e6, CriticalFraction: 0.025,
				PrefetchFriendly: 0.7,
			}),
			// 11: exact_rhs — dense compute, the high-IPC phase (the
			// 4.6-class aggregate-IPC phase of Fig. 2).
			phase(workload.PhaseProfile{
				Name: "exact_rhs", Instructions: 2.6e8, BaseIPC: 1.45,
				MemRefsPerInstr: 0.20, L1MissRate: 0.025, WorkingSetBytes: 0.8 * MB,
				SharingFactor: 0.4, ColdMissRate: 0.08, MLP: 3.0,
				ParallelFraction: 0.997, SyncCycles: 1.5e5, PrefetchFriendly: 0.8,
			}),
			// 12: initialize — streaming writes.
			phase(workload.PhaseProfile{
				Name: "initialize", Instructions: 1.1e8, BaseIPC: 1.0,
				MemRefsPerInstr: 0.5, L1MissRate: 0.28, WorkingSetBytes: 3.0 * MB,
				SharingFactor: 0.1, ColdMissRate: 0.26, LocalityExp: 1.1,
				MLP: 4.2, ParallelFraction: 0.99, SyncCycles: 5e5,
				PrefetchFriendly: 0.5, StoreBandwidthBoost: 1.0,
			}),
		},
	})
}

// Validate checks every benchmark in the suite; it is used by tests and by
// the harnesses at startup.
func Validate() error {
	names := map[string]bool{}
	for _, b := range All() {
		if err := b.Validate(); err != nil {
			return err
		}
		if names[b.Name] {
			return fmt.Errorf("npb: duplicate benchmark name %q", b.Name)
		}
		names[b.Name] = true
	}
	return nil
}
