package kernels

import (
	"math"
	"testing"

	"github.com/greenhpc/actor/internal/omp"
)

func TestAllKernelsRunAndProduceFiniteChecksums(t *testing.T) {
	team := omp.NewTeam(2)
	for _, k := range All(1) {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			for step := 0; step < 3; step++ {
				k.Step(team)
			}
			cs := k.Checksum()
			if math.IsNaN(cs) || math.IsInf(cs, 0) {
				t.Fatalf("checksum not finite: %g", cs)
			}
		})
	}
}

func TestByName(t *testing.T) {
	k, err := ByName("CG", 1)
	if err != nil || k.Name() != "CG" {
		t.Errorf("ByName(CG) = %v, %v", k, err)
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestKernelsDeterministicAtFixedTeamSize(t *testing.T) {
	for _, name := range []string{"CG", "MG", "FT", "IS", "LU", "LU-HP", "BT", "SP"} {
		a, _ := ByName(name, 1)
		b, _ := ByName(name, 1)
		team := omp.NewTeam(2)
		for i := 0; i < 2; i++ {
			a.Step(team)
			b.Step(team)
		}
		if a.Checksum() != b.Checksum() {
			t.Errorf("%s: two identical runs diverged", name)
		}
	}
}

func TestThreadCountInvariantKernels(t *testing.T) {
	// These kernels partition work without thread-count-dependent data
	// flow, so results must match across team sizes.
	for _, name := range []string{"CG", "MG", "FT", "LU", "LU-HP", "BT", "SP"} {
		a, _ := ByName(name, 1)
		b, _ := ByName(name, 1)
		t1 := omp.NewTeam(1)
		t4 := omp.NewTeam(4)
		for i := 0; i < 2; i++ {
			a.Step(t1)
			b.Step(t4)
		}
		if diff := math.Abs(a.Checksum() - b.Checksum()); diff > 1e-9*math.Abs(a.Checksum())+1e-12 {
			t.Errorf("%s: thread count changed result by %g", name, diff)
		}
	}
}

func TestCGResidualDecreases(t *testing.T) {
	cg := NewCG(48, 8)
	team := omp.NewTeam(2)
	first := cg.Residual()
	for i := 0; i < 10; i++ {
		cg.Step(team)
	}
	if cg.Residual() >= first {
		t.Errorf("CG residual did not decrease: %g → %g", first, cg.Residual())
	}
	if cg.Residual() > first*0.1 {
		t.Errorf("CG converging too slowly: %g → %g after 10 iterations", first, cg.Residual())
	}
}

func TestISSortsCorrectly(t *testing.T) {
	is := NewIS(1<<14, 1<<10)
	team := omp.NewTeam(4)
	for i := 0; i < 3; i++ {
		is.Step(team)
		if !is.Sorted() {
			t.Fatalf("output not sorted after step %d", i+1)
		}
	}
}

func TestBTSolvesTridiagonalSystems(t *testing.T) {
	bt := NewBT(8, 32)
	// Capture the RHS before the step mutates it.
	d0 := append([]float64(nil), bt.d...)
	team := omp.NewTeam(2)
	bt.Step(team)
	// Verify A·x = d for every line.
	n := bt.n
	for line := 0; line < bt.lines; line++ {
		off := line * n
		for i := 0; i < n; i++ {
			got := bt.b[off+i] * bt.x[off+i]
			if i > 0 {
				got += bt.a[off+i] * bt.x[off+i-1]
			}
			if i < n-1 {
				got += bt.c[off+i] * bt.x[off+i+1]
			}
			if math.Abs(got-d0[off+i]) > 1e-9 {
				t.Fatalf("line %d row %d: A·x = %g, want %g", line, i, got, d0[off+i])
			}
		}
	}
}

func TestSPSolvesPentadiagonalSystems(t *testing.T) {
	sp := NewSP(6, 24)
	d0 := append([]float64(nil), sp.d...)
	team := omp.NewTeam(2)
	sp.Step(team)
	n := sp.n
	for line := 0; line < sp.lines; line++ {
		off := line * n
		for i := 0; i < n; i++ {
			got := sp.b[off+i] * sp.x[off+i]
			if i >= 1 {
				got += sp.a[off+i] * sp.x[off+i-1]
			}
			if i >= 2 {
				got += sp.e[off+i] * sp.x[off+i-2]
			}
			if i+1 < n {
				got += sp.c[off+i] * sp.x[off+i+1]
			}
			if i+2 < n {
				got += sp.f[off+i] * sp.x[off+i+2]
			}
			if math.Abs(got-d0[off+i]) > 1e-8 {
				t.Fatalf("line %d row %d: A·x = %g, want %g", line, i, got, d0[off+i])
			}
		}
	}
}

func TestLUHPMatchesSequentialGaussSeidel(t *testing.T) {
	// The wavefront sweep must equal a plain sequential Gauss–Seidel
	// sweep in the same traversal order.
	hp := NewLUHP(64)
	seq := NewLUHP(64)
	team := omp.NewTeam(4)
	hp.Step(team)
	// Sequential reference: identical double sweep with one thread.
	t1 := omp.NewTeam(1)
	seq.Step(t1)
	if math.Abs(hp.Checksum()-seq.Checksum()) > 1e-9 {
		t.Errorf("wavefront result %g differs from sequential %g", hp.Checksum(), seq.Checksum())
	}
}

func TestMGChecksumEvolves(t *testing.T) {
	mg := NewMG(16)
	team := omp.NewTeam(2)
	c0 := mg.Checksum()
	mg.Step(team)
	c1 := mg.Checksum()
	if c0 == c1 {
		t.Error("V-cycle left the solution unchanged")
	}
	if math.IsNaN(c1) || math.IsInf(c1, 0) {
		t.Errorf("checksum diverged: %g", c1)
	}
}

func TestFTStepKeepsFieldBounded(t *testing.T) {
	ft := NewFT(32)
	team := omp.NewTeam(2)
	for i := 0; i < 5; i++ {
		ft.Step(team)
	}
	cs := ft.Checksum()
	if math.IsNaN(cs) || math.IsInf(cs, 0) || cs > 1e6 {
		t.Errorf("field magnitude diverged after 5 steps: %g", cs)
	}
}

func TestFFT1DRoundTrip(t *testing.T) {
	n := 64
	g := lcg(5)
	re := make([]float64, n)
	im := make([]float64, n)
	origRe := make([]float64, n)
	origIm := make([]float64, n)
	for i := 0; i < n; i++ {
		re[i] = g.float() - 0.5
		im[i] = g.float() - 0.5
		origRe[i], origIm[i] = re[i], im[i]
	}
	fft1d(re, im, false)
	fft1d(re, im, true)
	for i := 0; i < n; i++ {
		if math.Abs(re[i]/float64(n)-origRe[i]) > 1e-9 ||
			math.Abs(im[i]/float64(n)-origIm[i]) > 1e-9 {
			t.Fatalf("FFT round trip failed at %d", i)
		}
	}
}

// Residual returns the current residual norm ρ = r·r.
func (c *CG) Residual() float64 { return c.rho }

// Sorted reports whether the output array is non-decreasing (used by the
// correctness tests).
func (s *IS) Sorted() bool {
	for i := 1; i < len(s.sorted); i++ {
		if s.sorted[i] < s.sorted[i-1] {
			return false
		}
	}
	return true
}
