//go:build amd64 && !actor_noasm

// Bit-identity enforcement for the AVX2 kernels: every test drives the
// vector and scalar implementations over the same inputs — including odd
// shapes that exercise tail lanes, batch=1 and units=1 — and requires the
// outputs to match to the last bit (math.Float64bits equality, so NaN
// payloads and signed zeros count too).
package ann

import (
	"math"
	"math/rand"
	"testing"

	"github.com/greenhpc/actor/internal/simd"
)

// needAVX2 skips the test when the machine cannot run the vector kernels
// at all (the assembly is still compiled in). The tests call the AVX2 and
// scalar implementations directly, so they do not depend on the default
// binding; the -tags actor_noasm build excludes this file.
func needAVX2(t testing.TB) {
	t.Helper()
	f := simd.Detect()
	if !f.AVX2 || !f.OSYMM {
		t.Skip("no AVX2 on this machine")
	}
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func diffIndex(a, b []float64) int {
	for i := range a {
		if !bitsEqual(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// expInputs mixes the boundary cases of fastExp's range reduction with
// random magnitudes across the full exponent range.
func expInputs(rng *rand.Rand, n int) []float64 {
	edge := []float64{
		0, math.Copysign(0, -1), 1, -1, 709, 709.0000001, 708.9999999, 710, 1000,
		-708, -707.9999999, -708.0000001, -709, -1000,
		math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 1e-300, -1e-300, math.MaxFloat64, -math.MaxFloat64,
	}
	v := make([]float64, n)
	for i := range v {
		if i < len(edge) {
			v[i] = edge[i]
			continue
		}
		v[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(13)-6))
	}
	return v
}

func TestExpVecBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 257} {
		in := expInputs(rng, n)
		got := append([]float64(nil), in...)
		expVec(got)
		want := append([]float64(nil), in...)
		for i := range want {
			want[i] = fastExp(want[i])
		}
		if i := diffIndex(got, want); i >= 0 {
			t.Fatalf("n=%d: expVec(%v)[%d] = %x, fastExp = %x",
				n, in[i], i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestSigmoidVecBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 3, 4, 5, 8, 13, 100} {
		in := expInputs(rng, n)
		got := append([]float64(nil), in...)
		sigmoidVec(got)
		want := append([]float64(nil), in...)
		for i := range want {
			want[i] = sigmoid(want[i])
		}
		if i := diffIndex(got, want); i >= 0 {
			t.Fatalf("n=%d: sigmoidVec(%v)[%d] = %x, sigmoid = %x",
				n, in[i], i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return v
}

// TestDenseForwardBitIdentical draws random shapes, strides and weight
// scales for the output unit's forward pass.
func TestDenseForwardBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		batch := 1 + rng.Intn(9)
		inDim := 1 + rng.Intn(17)
		ldx := inDim + rng.Intn(3)
		x := randSlice(rng, batch*ldx)
		w := randSlice(rng, inDim+1)
		got := make([]float64, batch)
		want := make([]float64, batch)
		denseForwardAVX2(got, x, w, batch, inDim, ldx)
		denseForwardScalar(want, x, w, batch, inDim, ldx)
		if i := diffIndex(got, want); i >= 0 {
			t.Fatalf("trial %d (batch=%d inDim=%d ldx=%d): out[%d] = %x, want %x",
				trial, batch, inDim, ldx, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestDenseForwardOneUnitBitIdentical sweeps the output unit's forward pass
// (run once per target and batch) over every batch tail, every column tail
// and strided rows.
func TestDenseForwardOneUnitBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(8))
	for batch := 1; batch <= 13; batch++ {
		for inDim := 1; inDim <= 19; inDim++ {
			for _, pad := range []int{0, 1, 47} {
				ldx := inDim + pad
				x := randSlice(rng, batch*ldx)
				w := randSlice(rng, inDim+1)
				got := make([]float64, batch)
				want := make([]float64, batch)
				denseForwardAVX2(got, x, w, batch, inDim, ldx)
				denseForwardScalar(want, x, w, batch, inDim, ldx)
				if i := diffIndex(got, want); i >= 0 {
					t.Fatalf("batch=%d inDim=%d ldx=%d: out[%d] = %x, want %x", batch, inDim, ldx, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

func TestSGDStepBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		batch := 1 + rng.Intn(9)
		units := 1 + rng.Intn(17)
		inDim := 1 + rng.Intn(17)
		ldx := inDim + rng.Intn(3)
		lr := rng.Float64()
		momentum := rng.Float64()
		w := randSlice(rng, units*(inDim+1))
		vel := randSlice(rng, units*(inDim+1))
		d := randSlice(rng, batch*units)
		x := randSlice(rng, batch*ldx)

		wGot := append([]float64(nil), w...)
		velGot := append([]float64(nil), vel...)
		sgdStepAVX2(wGot, velGot, d, x, batch, units, inDim, ldx, lr, momentum)

		wWant := append([]float64(nil), w...)
		velWant := append([]float64(nil), vel...)
		sgdStepScalar(wWant, velWant, d, x, batch, units, inDim, ldx, lr, momentum)

		if i := diffIndex(wGot, wWant); i >= 0 {
			t.Fatalf("trial %d (batch=%d units=%d inDim=%d): w[%d] = %x, want %x",
				trial, batch, units, inDim, i,
				math.Float64bits(wGot[i]), math.Float64bits(wWant[i]))
		}
		if i := diffIndex(velGot, velWant); i >= 0 {
			t.Fatalf("trial %d (batch=%d units=%d inDim=%d): vel[%d] = %x, want %x",
				trial, batch, units, inDim, i,
				math.Float64bits(velGot[i]), math.Float64bits(velWant[i]))
		}
	}
}

// FuzzDenseForwardBitIdentity lets the fuzzer search shape corners and
// value patterns the fixed trials miss.
func FuzzDenseForwardBitIdentity(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(0))
	f.Add(int64(7), uint8(1), uint8(1), uint8(2))
	f.Add(int64(9), uint8(8), uint8(13), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, batchB, inDimB, padB uint8) {
		fz := simd.Detect()
		if !fz.AVX2 || !fz.OSYMM {
			t.Skip("no AVX2")
		}
		batch := 1 + int(batchB%12)
		inDim := 1 + int(inDimB%20)
		ldx := inDim + int(padB%4)
		rng := rand.New(rand.NewSource(seed))
		x := randSlice(rng, batch*ldx)
		w := randSlice(rng, inDim+1)
		got := make([]float64, batch)
		want := make([]float64, batch)
		denseForwardAVX2(got, x, w, batch, inDim, ldx)
		denseForwardScalar(want, x, w, batch, inDim, ldx)
		if i := diffIndex(got, want); i >= 0 {
			t.Fatalf("batch=%d inDim=%d ldx=%d: out[%d] = %x, want %x", batch, inDim, ldx, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	})
}

// FuzzSGDStepBitIdentity fuzzes the weight-update drain order across batch
// sizes on both sides of the momentum-folding threshold.
func FuzzSGDStepBitIdentity(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(2), uint8(0))
	f.Add(int64(3), uint8(3), uint8(16), uint8(13), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, batchB, unitsB, inDimB, padB uint8) {
		fz := simd.Detect()
		if !fz.AVX2 || !fz.OSYMM {
			t.Skip("no AVX2")
		}
		batch := 1 + int(batchB%12)
		units := 1 + int(unitsB%20)
		inDim := 1 + int(inDimB%20)
		ldx := inDim + int(padB%4)
		rng := rand.New(rand.NewSource(seed))
		w := randSlice(rng, units*(inDim+1))
		vel := randSlice(rng, units*(inDim+1))
		d := randSlice(rng, batch*units)
		x := randSlice(rng, batch*ldx)
		lr, momentum := rng.Float64(), rng.Float64()

		wGot := append([]float64(nil), w...)
		velGot := append([]float64(nil), vel...)
		sgdStepAVX2(wGot, velGot, d, x, batch, units, inDim, ldx, lr, momentum)
		wWant := append([]float64(nil), w...)
		velWant := append([]float64(nil), vel...)
		sgdStepScalar(wWant, velWant, d, x, batch, units, inDim, ldx, lr, momentum)
		if i := diffIndex(wGot, wWant); i >= 0 {
			t.Fatalf("batch=%d units=%d inDim=%d: w[%d] mismatch", batch, units, inDim, i)
		}
		if i := diffIndex(velGot, velWant); i >= 0 {
			t.Fatalf("batch=%d units=%d inDim=%d: vel[%d] mismatch", batch, units, inDim, i)
		}
	})
}

// FuzzStackedEnsembleBitIdentical fuzzes the stacked inference pass over
// ensemble shapes and weight scales: the AVX2 kernel against the scalar
// kernel on the packed weights, and Ensemble.Predict (whichever kernel is
// bound) against the members' own forward passes.
func FuzzStackedEnsembleBitIdentical(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(16), uint8(13), uint8(0))
	f.Add(int64(2), uint8(3), uint8(1), uint8(1), uint8(3))
	f.Add(int64(3), uint8(10), uint8(17), uint8(3), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, kB, hiddenB, inDimB, scaleB uint8) {
		fz := simd.Detect()
		if !fz.AVX2 || !fz.OSYMM {
			t.Skip("no AVX2")
		}
		k := 1 + int(kB%12)
		h := 1 + int(hiddenB%20)
		d := 1 + int(inDimB%20)
		rng := rand.New(rand.NewSource(seed))
		e := randomEnsemble(t, rng, k, []int{d, h, 1}, math.Pow(10, float64(scaleB%7)-2))
		s := e.stack
		got := make([]float64, s.lanes)
		want := make([]float64, s.lanes)
		for _, x := range stackInputs(rng, d, 16) {
			nx := e.Scaler.XInto(nil, x)
			stackForwardAVX2(got, s.wT, nx)
			stackForwardScalar(want, s.wT, nx)
			if i := diffIndex(got, want); i >= 0 {
				t.Fatalf("k=%d [%d,%d,1] x=%v: lane %d = %x, want %x", k, d, h, x, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			if p, m := e.Predict(x), memberMean(e, x); !bitsEqual(p, m) {
				t.Fatalf("k=%d [%d,%d,1] x=%v: Predict = %x, members give %x", k, d, h, x,
					math.Float64bits(p), math.Float64bits(m))
			}
		}
	})
}

// sgdFeatureMajorCase draws one feature-major update: inputs whose first
// column is the bias input 1, lanes a multiple of four (the trainer pads).
func sgdFeatureMajorCase(rng *rand.Rand, batch, rows, lanes, ldx int) (w, vel, tv, x []float64) {
	w = randSlice(rng, rows*lanes)
	vel = randSlice(rng, rows*lanes)
	tv = randSlice(rng, batch*lanes)
	x = randSlice(rng, batch*ldx)
	for b := 0; b < batch; b++ {
		x[b*ldx] = 1
	}
	return w, vel, tv, x
}

// requireSGDFeatureMajorMatches runs both implementations on copies of one
// case and fails on the first differing bit.
func requireSGDFeatureMajorMatches(t *testing.T, w, vel, tv, x []float64, batch, rows, lanes, ldx int, momentum float64) {
	t.Helper()
	wGot, velGot := append([]float64(nil), w...), append([]float64(nil), vel...)
	sgdFeatureMajorAVX2(wGot, velGot, tv, x, batch, rows, lanes, ldx, momentum)
	wWant, velWant := append([]float64(nil), w...), append([]float64(nil), vel...)
	sgdFeatureMajorScalar(wWant, velWant, tv, x, batch, rows, lanes, ldx, momentum)
	if i := diffIndex(velGot, velWant); i >= 0 {
		t.Fatalf("batch=%d rows=%d lanes=%d ldx=%d: vel[%d] = %x, want %x", batch, rows, lanes, ldx, i,
			math.Float64bits(velGot[i]), math.Float64bits(velWant[i]))
	}
	if i := diffIndex(wGot, wWant); i >= 0 {
		t.Fatalf("batch=%d rows=%d lanes=%d ldx=%d: w[%d] = %x, want %x", batch, rows, lanes, ldx, i,
			math.Float64bits(wGot[i]), math.Float64bits(wWant[i]))
	}
}

// TestSGDFeatureMajorBitIdentical also holds the feature-major update to
// the row-major one it replaces for the first layer: transposing a layer,
// updating it feature-major and transposing back gives sgdStep's bits.
func TestSGDFeatureMajorBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		batch := 1 + rng.Intn(12)
		inDim := 1 + rng.Intn(17)
		units := 1 + rng.Intn(20)
		lanes := (units + 3) &^ 3
		rows, ldx := inDim+1, inDim+1+rng.Intn(3)
		lr, momentum := rng.Float64(), rng.Float64()
		w, vel, _, x := sgdFeatureMajorCase(rng, batch, rows, lanes, ldx)
		d := randSlice(rng, batch*units)
		tv := make([]float64, batch*lanes)
		for b := 0; b < batch; b++ {
			for j := 0; j < units; j++ {
				tv[b*lanes+j] = lr * d[b*units+j]
			}
		}
		requireSGDFeatureMajorMatches(t, w, vel, tv, x, batch, rows, lanes, ldx, momentum)

		// The row-major twin: row j = unit j's feature weights, then its bias.
		rw := make([]float64, units*rows)
		rv := make([]float64, units*rows)
		for j := 0; j < units; j++ {
			for i := 0; i < inDim; i++ {
				rw[j*rows+i], rv[j*rows+i] = w[(i+1)*lanes+j], vel[(i+1)*lanes+j]
			}
			rw[j*rows+inDim], rv[j*rows+inDim] = w[j], vel[j]
		}
		sgdStep(rw, rv, d, x[1:], batch, units, inDim, ldx, lr, momentum)
		sgdFeatureMajor(w, vel, tv, x, batch, rows, lanes, ldx, momentum)
		for j := 0; j < units; j++ {
			for i := 0; i <= inDim; i++ {
				fm := (i+1)*lanes + j
				if i == inDim {
					fm = j
				}
				if !bitsEqual(rw[j*rows+i], w[fm]) || !bitsEqual(rv[j*rows+i], vel[fm]) {
					t.Fatalf("trial %d (batch=%d inDim=%d units=%d): unit %d input %d: feature-major w/v %x/%x, row-major %x/%x",
						trial, batch, inDim, units, j, i, math.Float64bits(w[fm]), math.Float64bits(vel[fm]),
						math.Float64bits(rw[j*rows+i]), math.Float64bits(rv[j*rows+i]))
				}
			}
		}
	}
}

// FuzzFeatureMajorSGDBitIdentical fuzzes the feature-major update kernel
// against its scalar reference across batch sizes on both sides of the
// momentum-folding block, lane counts and input strides.
func FuzzFeatureMajorSGDBitIdentical(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(13), uint8(16), uint8(0))
	f.Add(int64(2), uint8(3), uint8(1), uint8(1), uint8(2))
	f.Add(int64(3), uint8(5), uint8(5), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, batchB, inDimB, vecsB, padB uint8) {
		fz := simd.Detect()
		if !fz.AVX2 || !fz.OSYMM {
			t.Skip("no AVX2")
		}
		batch := 1 + int(batchB%13)
		rows := 2 + int(inDimB%20)
		lanes := 4 * (1 + int(vecsB%24))
		ldx := rows + int(padB%4)
		rng := rand.New(rand.NewSource(seed))
		w, vel, tv, x := sgdFeatureMajorCase(rng, batch, rows, lanes, ldx)
		requireSGDFeatureMajorMatches(t, w, vel, tv, x, batch, rows, lanes, ldx, rng.Float64())
	})
}

func TestHiddenEtaBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		batch := 1 + rng.Intn(9)
		units := 1 + rng.Intn(20)
		unitsNext := 1 + rng.Intn(5)
		ld := units + rng.Intn(9)
		lr := rng.Float64()
		dNext := randSlice(rng, batch*unitsNext)
		wNext := randSlice(rng, unitsNext*(units+1))
		acts := randSlice(rng, batch*ld)
		for i := range acts {
			acts[i] = 1 / (1 + math.Exp(-acts[i]))
		}
		got := make([]float64, batch*ld)
		want := make([]float64, batch*ld)
		hiddenEtaAVX2(got, dNext, wNext, acts, batch, units, unitsNext, ld, lr)
		hiddenEtaScalar(want, dNext, wNext, acts, batch, units, unitsNext, ld, lr)
		if i := diffIndex(got, want); i >= 0 {
			t.Fatalf("trial %d (batch=%d units=%d next=%d ld=%d): t[%d] = %x, want %x",
				trial, batch, units, unitsNext, ld, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
		// η·δ is lr times the reference trainer's δ, element by element.
		d := make([]float64, batch*units)
		packed := make([]float64, batch*units)
		for b := 0; b < batch; b++ {
			copy(packed[b*units:(b+1)*units], acts[b*ld:])
		}
		hiddenDelta(d, dNext, wNext, packed, batch, units, unitsNext)
		for b := 0; b < batch; b++ {
			for j := 0; j < units; j++ {
				if !bitsEqual(lr*d[b*units+j], got[b*ld+j]) {
					t.Fatalf("trial %d: sample %d unit %d: η·δ %v, lr·δ %v", trial, b, j, got[b*ld+j], lr*d[b*units+j])
				}
			}
		}
	}
}
