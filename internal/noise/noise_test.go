package noise

import (
	"math"
	"testing"
)

// referenceMultiplicative is the per-draw formula Multiplicative hoists:
// the log-normal constants worked out from sigma on every draw.
func referenceMultiplicative(s *Source, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	s2 := math.Log(1 + float64(sigma*sigma))
	mu := float64(-0.5 * s2)
	return math.Exp(mu + float64(math.Sqrt(s2)*s.rng.NormFloat64()))
}

// TestMultiplicativeMatchesPerDrawReference: the hoisted constants draw the
// same bits as the per-draw formula, at the machine model's two levels
// (0.03 for run times, 0.12 for event counts) and at the levels the other
// tests use.
func TestMultiplicativeMatchesPerDrawReference(t *testing.T) {
	const draws = 100_000
	for _, sigma := range []float64{0.03, 0.12, 0.02, 0.1, 0.2} {
		level := NewMultiplicative(sigma)
		got, want := New(11), New(11)
		for i := 0; i < draws; i++ {
			g, w := level.Draw(got), referenceMultiplicative(want, sigma)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("sigma %g draw %d: %x, per-draw reference %x", sigma, i, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	level := NewMultiplicative(0.1)
	a := New(7)
	b := New(7)
	for i := 0; i < 100; i++ {
		if level.Draw(a) != level.Draw(b) {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestForkStability(t *testing.T) {
	level := NewMultiplicative(0.1)
	a := New(7)
	// Consume some draws from one parent but not the other: forks must
	// still agree.
	for i := 0; i < 50; i++ {
		level.Draw(a)
	}
	b := New(7)
	fa := a.Fork("machine")
	fb := b.Fork("machine")
	for i := 0; i < 50; i++ {
		if level.Draw(fa) != level.Draw(fb) {
			t.Fatal("forks of equal (seed, id) diverged")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	level := NewMultiplicative(0.1)
	s := New(7)
	a := s.Fork("a")
	b := s.Fork("b")
	same := 0
	for i := 0; i < 100; i++ {
		if level.Draw(a) == level.Draw(b) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("distinct fork ids produced %d/100 equal draws", same)
	}
}

func TestMultiplicativeZeroSigma(t *testing.T) {
	level := NewMultiplicative(0)
	s := New(1)
	for i := 0; i < 10; i++ {
		if got := level.Draw(s); got != 1 {
			t.Fatalf("NewMultiplicative(0) drew %g, want 1", got)
		}
	}
}

func TestMultiplicativePositiveAndCentered(t *testing.T) {
	level := NewMultiplicative(0.1)
	s := New(99)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := level.Draw(s)
		if v <= 0 {
			t.Fatalf("Multiplicative produced non-positive %g", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.01 {
		t.Errorf("mean of NewMultiplicative(0.1) draws = %g, want ≈ 1", mean)
	}
}

func TestMultiplicativeSigmaScales(t *testing.T) {
	varOf := func(sigma float64) float64 {
		level := NewMultiplicative(sigma)
		s := New(5)
		var sum, sum2 float64
		const n = 20000
		for i := 0; i < n; i++ {
			v := level.Draw(s)
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
