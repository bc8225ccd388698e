package ann

import (
	"math/rand"
	"testing"
)

// Per-kernel microbenchmarks: each drives one dispatched hot kernel at the
// trainer's own shape ([13,16,1] network, batch 8), measuring whichever
// implementation (scalar or AVX2) this machine bound at startup — see
// PERFORMANCE.md.

// BenchmarkDenseForward drives the output unit's forward pass over a batch
// of Hidden activations per row, the rows at the lane stride of a
// four-target lockstep run (64).
func BenchmarkDenseForward(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	const batch, ldx = 8, 4 * Hidden
	x := make([]float64, batch*ldx)
	w := make([]float64, Hidden+1)
	out := make([]float64, batch)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		denseForward(out, x, w, batch, ldx)
	}
}

// BenchmarkSGDStep drives the output unit's update at the same shape as
// BenchmarkDenseForward.
func BenchmarkSGDStep(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	const batch, ldx = 8, 4 * Hidden
	w := make([]float64, Hidden+1)
	vel := make([]float64, Hidden+1)
	d := make([]float64, batch)
	x := make([]float64, batch*ldx)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sgdStep(w, vel, d, x, batch, ldx, 0.01, 0.9)
	}
}

// BenchmarkSGDFeatureMajor drives the bound feature-major update at the
// lockstep trainer's shape for a leave-one-out bank: 13 features plus the
// bias row, four targets of Hidden units (64 lanes), batch 8.
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

// BenchmarkStackForward drives the bound layer-0 forward pass (the
// pre-activations and the sigmoid of every lane) at the same leave-one-out
// shape: 13 features, four targets of Hidden units (64 lanes). The
// lockstep trainer runs it once per batch row, the ensemble once per
// prediction.
func BenchmarkStackForward(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	const inDim, lanes = 13, 64
	wT := make([]float64, (inDim+1)*lanes)
	x := make([]float64, inDim)
	for i := range wT {
		wT[i] = rng.NormFloat64()
	}
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	acts := make([]float64, lanes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stackForward(acts, wT, x)
	}
}

// BenchmarkANNTrainBatched trains one network on 160 samples for 50
// epochs on the mini-batch GEMM engine — the inner loop every ensemble
// member runs.
func BenchmarkANNTrainBatched(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	samples := make([]Sample, 200)
	for i := range samples {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		samples[i] = Sample{X: x, Y: x[0]*x[1] - x[2]}
	}
	cfg := DefaultConfig()
	cfg.MaxEpochs = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Train(samples[:160], samples[160:], cfg); err != nil {
			b.Fatal(err)
		}
	}
}
