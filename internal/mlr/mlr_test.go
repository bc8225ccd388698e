package mlr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/greenhpc/actor/internal/ann"
)

func linearSamples(n int, seed int64, noise float64) []ann.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ann.Sample, n)
	for i := range out {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y := 2 + 3*x[0] - 1.5*x[1] + 0.25*x[2] + noise*rng.NormFloat64()
		out[i] = ann.Sample{X: x, Y: y}
	}
	return out
}

func TestFitRecoversLinearModel(t *testing.T) {
	m, err := Fit(linearSamples(200, 1, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1.5, 0.25}
	for i, w := range want {
		if math.Abs(m.Coef[i]-w) > 1e-8 {
			t.Errorf("coef[%d] = %g, want %g", i, m.Coef[i], w)
		}
	}
}

func TestFitWithNoiseStillClose(t *testing.T) {
	m, err := Fit(linearSamples(2000, 2, 0.05), 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1.5, 0.25}
	for i, w := range want {
		if math.Abs(m.Coef[i]-w) > 0.05 {
			t.Errorf("coef[%d] = %g, want ≈ %g", i, m.Coef[i], w)
		}
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, 0); err == nil {
		t.Error("empty set accepted")
	}
	short := linearSamples(3, 1, 0) // 4 coefficients need ≥ 4 samples
	if _, err := Fit(short, 0); err == nil {
		t.Error("underdetermined system accepted")
	}
	bad := []ann.Sample{{X: []float64{1}, Y: 0}, {X: []float64{1, 2}, Y: 0}}
	if _, err := Fit(bad, 0); err == nil {
		t.Error("inconsistent dimensions accepted")
	}
}

func TestFitSingularWithoutRidge(t *testing.T) {
	// Duplicate feature → singular normal equations.
	var samples []ann.Sample
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		v := rng.Float64()
		samples = append(samples, ann.Sample{X: []float64{v, v}, Y: v})
	}
	if _, err := Fit(samples, 0); err == nil {
		t.Error("singular system accepted without ridge")
	}
	if _, err := Fit(samples, 1e-6); err != nil {
		t.Errorf("ridge failed to regularise singular system: %v", err)
	}
}

func TestPredictPanicsOnDimMismatch(t *testing.T) {
	m, _ := Fit(linearSamples(50, 1, 0), 0)
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong input dimension")
		}
	}()
	m.Predict([]float64{1})
}

func TestMSE(t *testing.T) {
	m, _ := Fit(linearSamples(100, 1, 0), 0)
	if got := m.MSE(linearSamples(100, 2, 0)); got > 1e-12 {
		t.Errorf("noiseless linear MSE = %g, want ≈ 0", got)
	}
	if got := m.MSE(nil); got != 0 {
		t.Errorf("MSE(nil) = %g", got)
	}
}

func TestPredictionInterpolatesQuick(t *testing.T) {
	m, _ := Fit(linearSamples(100, 5, 0), 0)
	f := func(a, b, c float64) bool {
		x := []float64{math.Mod(math.Abs(a), 1), math.Mod(math.Abs(b), 1), math.Mod(math.Abs(c), 1)}
		want := 2 + 3*x[0] - 1.5*x[1] + 0.25*x[2]
		return math.Abs(m.Predict(x)-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// MSE returns the model's mean squared error on the set.
func (m *Model) MSE(set []ann.Sample) float64 {
	if len(set) == 0 {
		return 0
	}
	var sum float64
	for _, s := range set {
		d := m.Predict(s.X) - s.Y
		sum += d * d
	}
	return sum / float64(len(set))
}
