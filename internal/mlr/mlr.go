// Package mlr implements multiple linear regression, the paper's
// prior-work baseline predictor ([3], Curtis-Maury et al., ICS'06). The
// paper argues ANNs match regression accuracy while eliminating the
// hand-tuned, machine-specific model derivation; this package exists so the
// repository can reproduce that comparison (see the ablation benchmarks).
//
// Every product that feeds an add or subtract is wrapped in an explicit
// float64(...) conversion, which forces its rounding, so arm64 (where Go
// fuses a*b + c into one FMA) fits and predicts the bits amd64 does.
// `make fma-check` fails on any fused instruction left in the listing.
package mlr

import (
	"errors"
	"fmt"

	"github.com/greenhpc/actor/internal/ann"
)

// Model is a linear model y = b0 + Σ bi·xi fit by least squares on the
// normal equations with a small ridge term for numerical stability.
type Model struct {
	// Coef holds [b0, b1, ..., bd].
	Coef []float64
}

// Fit solves the least-squares problem for the samples. All samples must
// share one feature dimension. Ridge (≥ 0) adds λI to XᵀX; 1e-8 is a good
// default for conditioning, larger values regularise.
func Fit(samples []ann.Sample, ridge float64) (*Model, error) {
	if len(samples) == 0 {
		return nil, errors.New("mlr: empty training set")
	}
	d := len(samples[0].X)
	for _, s := range samples {
		if len(s.X) != d {
			return nil, errors.New("mlr: inconsistent feature dimensions")
		}
	}
	n := d + 1 // + intercept
	if len(samples) < n {
		return nil, fmt.Errorf("mlr: %d samples cannot determine %d coefficients", len(samples), n)
	}
	// Build normal equations A = XᵀX (+ ridge), b = Xᵀy with X rows
	// [1, x...].
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	b := make([]float64, n)
	row := make([]float64, n)
	for _, s := range samples {
		row[0] = 1
		copy(row[1:], s.X)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i][j] += float64(row[i] * row[j])
			}
			b[i] += float64(row[i] * s.Y)
		}
	}
	if ridge < 0 {
		ridge = 0
	}
	for i := 1; i < n; i++ { // do not penalise the intercept
		a[i][i] += ridge
	}
	coef, err := solveGauss(a, b)
	if err != nil {
		return nil, err
	}
	return &Model{Coef: coef}, nil
}

// NewModel constructs a model from flat coefficients [b0, b1, ..., bd],
// validating that at least the intercept is present. The slice is copied —
// deserializers hand in buffers they may reuse.
func NewModel(coef []float64) (*Model, error) {
	if len(coef) < 1 {
		return nil, errors.New("mlr: model needs at least an intercept coefficient")
	}
	return &Model{Coef: append([]float64(nil), coef...)}, nil
}

// Predict evaluates the model on x; panics on dimension mismatch.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != len(m.Coef)-1 {
		panic(fmt.Sprintf("mlr: input dim %d, want %d", len(x), len(m.Coef)-1))
	}
	y := m.Coef[0]
	for i, v := range x {
		y += float64(m.Coef[i+1] * v)
	}
	return y
}

// InputDim returns the expected feature dimension.
func (m *Model) InputDim() int { return len(m.Coef) - 1 }

// solveGauss solves a·x = b by Gaussian elimination with partial pivoting.
// a and b are modified in place.
func solveGauss(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if abs(a[r][col]) > abs(a[piv][col]) {
				piv = r
			}
		}
		if abs(a[piv][col]) < 1e-14 {
			return nil, errors.New("mlr: singular normal equations (try a larger ridge)")
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= float64(f * a[col][c])
			}
			b[r] -= float64(f * b[col])
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= float64(a[r][c] * x[c])
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
