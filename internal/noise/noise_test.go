package noise

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(7)
	b := New(7)
	for i := 0; i < 100; i++ {
		if a.Multiplicative(0.1) != b.Multiplicative(0.1) {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestForkStability(t *testing.T) {
	a := New(7)
	// Consume some draws from one parent but not the other: forks must
	// still agree.
	for i := 0; i < 50; i++ {
		a.Multiplicative(0.1)
	}
	b := New(7)
	fa := a.Fork("machine")
	fb := b.Fork("machine")
	for i := 0; i < 50; i++ {
		if fa.Multiplicative(0.1) != fb.Multiplicative(0.1) {
			t.Fatal("forks of equal (seed, id) diverged")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	s := New(7)
	a := s.Fork("a")
	b := s.Fork("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Multiplicative(0.1) == b.Multiplicative(0.1) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("distinct fork ids produced %d/100 equal draws", same)
	}
}

func TestMultiplicativeZeroSigma(t *testing.T) {
	s := New(1)
	for i := 0; i < 10; i++ {
		if got := s.Multiplicative(0); got != 1 {
			t.Fatalf("Multiplicative(0) = %g, want 1", got)
		}
	}
}

func TestMultiplicativePositiveAndCentered(t *testing.T) {
	s := New(99)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := s.Multiplicative(0.1)
		if v <= 0 {
			t.Fatalf("Multiplicative produced non-positive %g", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.01 {
		t.Errorf("mean of Multiplicative(0.1) = %g, want ≈ 1", mean)
	}
}

func TestMultiplicativeSigmaScales(t *testing.T) {
	varOf := func(sigma float64) float64 {
		s := New(5)
		var sum, sum2 float64
		const n = 20000
		for i := 0; i < n; i++ {
			v := s.Multiplicative(sigma)
			sum += v
			sum2 += v * v
		}
		m := sum / n
		return sum2/n - m*m
	}
	small, large := varOf(0.02), varOf(0.2)
	if small >= large {
		t.Errorf("variance did not grow with sigma: %g vs %g", small, large)
	}
}
