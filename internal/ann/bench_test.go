package ann

import (
	"math/rand"
	"testing"
)

// BenchmarkSGDFeatureMajor drives the bound feature-major update at the
// lockstep trainer's shape for a leave-one-out bank: 13 features plus the
// bias row, four targets of 16 hidden units (64 lanes), batch 8.
func BenchmarkSGDFeatureMajor(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	const batch, rows, lanes = 8, 14, 64
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	w, vel, t, x := fill(rows*lanes), make([]float64, rows*lanes), fill(batch*lanes), fill(batch*rows)
	for r := 0; r < batch; r++ {
		x[r*rows] = 1 // the bias input
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sgdFeatureMajor(w, vel, t, x, batch, rows, lanes, rows, 0.5)
	}
}
