//go:build amd64 && !actor_noasm

// Bit-identity enforcement for the AVX2 kernels: every test drives the
// vector and scalar implementations over the same inputs — including batch
// tails, batch=1 and padded row strides — and requires the
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

// TestSigmoidVecBitIdentical drives the vector sigmoid of the fused forward
// kernel with every expInputs edge, and its negation (so fastExp sees the
// edge as its argument too), as a pre-activation: a bias row of edges,
// zero weights and x = +1, so a lane's pre-activation is edge + 0·1, the
// edge itself. Each edge fills a whole Hidden block, so it reaches every
// lane of the kernel's four chains; random blocks follow. One edge cannot
// be produced that way and is named in unreachable: the sum starts from
// the bias and adds at least one product, so −0 + (+0) reaches the
// sigmoid as +0.
func TestSigmoidVecBitIdentical(t *testing.T) {
	needAVX2(t)
	unreachable := map[uint64]string{
		math.Float64bits(math.Copysign(0, -1)): "−0 + 0·1 is +0: a forward pass never hands the sigmoid −0",
	}
	rng := rand.New(rand.NewSource(2))
	var pre []float64
	for _, e := range expInputs(rng, 23) {
		pre = append(pre, e, -e)
	}
	for _, inDim := range []int{1, 3, 13} {
		for _, extra := range []int{0, 1, 3} {
			lanes := (len(pre) + extra) * Hidden
			bias := expInputs(rng, lanes)
			for i, e := range pre {
				for j := 0; j < Hidden; j++ {
					bias[i*Hidden+j] = e
				}
			}
			wT := make([]float64, (inDim+1)*lanes)
			copy(wT, bias)
			x := make([]float64, inDim)
			for i := range x {
				x[i] = 1
			}
			got := make([]float64, lanes)
			want := make([]float64, lanes)
			stackForwardAVX2(got, wT, x)
			stackForwardScalar(want, wT, x)
			if i := diffIndex(got, want); i >= 0 {
				t.Fatalf("inDim=%d lanes=%d: sigmoid(%v) lane %d = %x, scalar %x", inDim, lanes,
					bias[i], i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			for u, v := range bias {
				p := v
				if _, ok := unreachable[math.Float64bits(v)]; ok {
					p = 0
				}
				if s := sigmoid(p); !bitsEqual(got[u], s) {
					t.Fatalf("inDim=%d lanes=%d: lane %d (pre-activation %v) = %x, sigmoid %x",
						inDim, lanes, u, v, math.Float64bits(got[u]), math.Float64bits(s))
				}
			}
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

// TestDenseForwardBitIdentical draws random batch sizes, strides and
// weight scales for the output unit's forward pass.
func TestDenseForwardBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		batch := 1 + rng.Intn(9)
		requireDenseForwardMatches(t, rng, batch, Hidden+rng.Intn(3))
	}
}

// TestDenseForwardOneUnitBitIdentical sweeps the output unit's forward pass
// (run once per target and batch) over every batch tail and strided rows.
func TestDenseForwardOneUnitBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(8))
	for batch := 1; batch <= 13; batch++ {
		for _, pad := range []int{0, 1, 47} {
			requireDenseForwardMatches(t, rng, batch, Hidden+pad)
		}
	}
}

// requireDenseForwardMatches runs both implementations of the output
// unit's forward pass on one random case and fails on the first differing
// bit.
func requireDenseForwardMatches(t *testing.T, rng *rand.Rand, batch, ldx int) {
	t.Helper()
	x := randSlice(rng, batch*ldx)
	w := randSlice(rng, Hidden+1)
	got := make([]float64, batch)
	want := make([]float64, batch)
	denseForwardAVX2(got, x, w, batch, ldx)
	denseForwardScalar(want, x, w, batch, ldx)
	if i := diffIndex(got, want); i >= 0 {
		t.Fatalf("batch=%d ldx=%d: out[%d] = %x, want %x", batch, ldx, i,
			math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
}

// requireSGDStepMatches runs both implementations of the output unit's
// update on copies of one random case and fails on the first differing
// bit.
func requireSGDStepMatches(t *testing.T, rng *rand.Rand, batch, ldx int) {
	t.Helper()
	lr, momentum := rng.Float64(), rng.Float64()
	w := randSlice(rng, Hidden+1)
	vel := randSlice(rng, Hidden+1)
	d := randSlice(rng, batch)
	x := randSlice(rng, batch*ldx)

	wGot := append([]float64(nil), w...)
	velGot := append([]float64(nil), vel...)
	sgdStepAVX2(wGot, velGot, d, x, batch, ldx, lr, momentum)
	wWant := append([]float64(nil), w...)
	velWant := append([]float64(nil), vel...)
	sgdStepScalar(wWant, velWant, d, x, batch, ldx, lr, momentum)
	if i := diffIndex(wGot, wWant); i >= 0 {
		t.Fatalf("batch=%d ldx=%d: w[%d] = %x, want %x", batch, ldx, i,
			math.Float64bits(wGot[i]), math.Float64bits(wWant[i]))
	}
	if i := diffIndex(velGot, velWant); i >= 0 {
		t.Fatalf("batch=%d ldx=%d: vel[%d] = %x, want %x", batch, ldx, i,
			math.Float64bits(velGot[i]), math.Float64bits(velWant[i]))
	}
}

// TestSGDStepBitIdentical holds the output unit's update to its scalar
// reference, and that reference to the row-major multi-unit update of the
// reference trainer (reference_test.go) at one unit.
func TestSGDStepBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		batch := 1 + rng.Intn(9)
		ldx := Hidden + rng.Intn(3)
		requireSGDStepMatches(t, rng, batch, ldx)

		lr, momentum := rng.Float64(), rng.Float64()
		w, vel := randSlice(rng, Hidden+1), randSlice(rng, Hidden+1)
		d, x := randSlice(rng, batch), randSlice(rng, batch*ldx)
		wRef, velRef := append([]float64(nil), w...), append([]float64(nil), vel...)
		sgdStepScalar(w, vel, d, x, batch, ldx, lr, momentum)
		refSGDStep(wRef, velRef, d, x, batch, 1, Hidden, ldx, lr, momentum)
		if i := diffIndex(w, wRef); i >= 0 {
			t.Fatalf("trial %d (batch=%d): w[%d] = %x, row-major reference %x", trial, batch, i,
				math.Float64bits(w[i]), math.Float64bits(wRef[i]))
		}
		if i := diffIndex(vel, velRef); i >= 0 {
			t.Fatalf("trial %d (batch=%d): vel[%d] = %x, row-major reference %x", trial, batch, i,
				math.Float64bits(vel[i]), math.Float64bits(velRef[i]))
		}
	}
}

// FuzzDenseForwardBitIdentity lets the fuzzer search batch tails, strides
// and value patterns the fixed trials miss.
func FuzzDenseForwardBitIdentity(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0))
	f.Add(int64(7), uint8(1), uint8(2))
	f.Add(int64(9), uint8(8), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, batchB, padB uint8) {
		fz := simd.Detect()
		if !fz.AVX2 || !fz.OSYMM {
			t.Skip("no AVX2")
		}
		requireDenseForwardMatches(t, rand.New(rand.NewSource(seed)), 1+int(batchB%12), Hidden+int(padB%4))
	})
}

// FuzzSGDStepBitIdentity fuzzes the weight-update drain order across batch
// sizes on both sides of the momentum-folding threshold.
func FuzzSGDStepBitIdentity(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0))
	f.Add(int64(3), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, batchB, padB uint8) {
		fz := simd.Detect()
		if !fz.AVX2 || !fz.OSYMM {
			t.Skip("no AVX2")
		}
		requireSGDStepMatches(t, rand.New(rand.NewSource(seed)), 1+int(batchB%12), Hidden+int(padB%4))
	})
}

// FuzzStackedEnsembleBitIdentical fuzzes the stacked inference pass over
// member counts, feature counts and weight scales: the AVX2 kernel against the scalar
// kernel on the packed weights, and Ensemble.Predict (whichever kernel is
// bound) against the members' own forward passes.
func FuzzStackedEnsembleBitIdentical(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(13), uint8(0))
	f.Add(int64(2), uint8(3), uint8(1), uint8(3))
	f.Add(int64(3), uint8(10), uint8(3), uint8(6))
	// The leave-one-out shape: 13 features, four members of Hidden lanes.
	f.Add(int64(4), uint8(3), uint8(12), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, kB, inDimB, scaleB uint8) {
		fz := simd.Detect()
		if !fz.AVX2 || !fz.OSYMM {
			t.Skip("no AVX2")
		}
		k := 1 + int(kB%12)
		d := 1 + int(inDimB%20)
		rng := rand.New(rand.NewSource(seed))
		e := randomEnsemble(t, rng, k, d, math.Pow(10, float64(scaleB%7)-2))
		s := e.stack
		got := make([]float64, s.lanes)
		want := make([]float64, s.lanes)
		for _, x := range stackInputs(rng, d, 16) {
			nx := e.Scaler.XInto(nil, x)
			stackForwardAVX2(got, s.wT, nx)
			stackForwardScalar(want, s.wT, nx)
			if i := diffIndex(got, want); i >= 0 {
				t.Fatalf("k=%d d=%d x=%v: lane %d = %x, want %x", k, d, x, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			if p, m := e.Predict(x), memberMean(e, x); !bitsEqual(p, m) {
				t.Fatalf("k=%d d=%d x=%v: Predict = %x, members give %x", k, d, x,
					math.Float64bits(p), math.Float64bits(m))
			}
		}
	})
}

// sgdFeatureMajorCase draws one feature-major update: inputs whose first
// column is the bias input 1, lanes a multiple of Hidden.
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
// updating it feature-major and transposing back gives the reference
// trainer's row-major bits (refSGDStep).
func TestSGDFeatureMajorBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		batch := 1 + rng.Intn(12)
		inDim := 1 + rng.Intn(17)
		units := Hidden * (1 + rng.Intn(4))
		rows, ldx := inDim+1, inDim+1+rng.Intn(3)
		lr, momentum := rng.Float64(), rng.Float64()
		w, vel, _, x := sgdFeatureMajorCase(rng, batch, rows, units, ldx)
		d := randSlice(rng, batch*units)
		tv := make([]float64, batch*units)
		for i, dv := range d {
			tv[i] = lr * dv
		}
		requireSGDFeatureMajorMatches(t, w, vel, tv, x, batch, rows, units, ldx, momentum)

		// The row-major twin: row j = unit j's feature weights, then its bias.
		rw := make([]float64, units*rows)
		rv := make([]float64, units*rows)
		for j := 0; j < units; j++ {
			for i := 0; i < inDim; i++ {
				rw[j*rows+i], rv[j*rows+i] = w[(i+1)*units+j], vel[(i+1)*units+j]
			}
			rw[j*rows+inDim], rv[j*rows+inDim] = w[j], vel[j]
		}
		refSGDStep(rw, rv, d, x[1:], batch, units, inDim, ldx, lr, momentum)
		sgdFeatureMajor(w, vel, tv, x, batch, rows, units, ldx, momentum)
		for j := 0; j < units; j++ {
			for i := 0; i <= inDim; i++ {
				fm := (i+1)*units + j
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
// momentum-folding block, target counts and input strides.
func FuzzFeatureMajorSGDBitIdentical(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(13), uint8(3), uint8(0))
	f.Add(int64(2), uint8(3), uint8(1), uint8(0), uint8(2))
	f.Add(int64(3), uint8(5), uint8(5), uint8(1), uint8(1))
	// The leave-one-out shape: 13 features and the bias row, four targets
	// of Hidden lanes, batch 8 and a five-row straggler batch.
	f.Add(int64(4), uint8(7), uint8(12), uint8(3), uint8(0))
	f.Add(int64(5), uint8(4), uint8(12), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, batchB, inDimB, targetsB, padB uint8) {
		fz := simd.Detect()
		if !fz.AVX2 || !fz.OSYMM {
			t.Skip("no AVX2")
		}
		batch := 1 + int(batchB%13)
		rows := 2 + int(inDimB%20)
		lanes := Hidden * (1 + int(targetsB%6))
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
		ld := Hidden + rng.Intn(9)
		lr := rng.Float64()
		d := randSlice(rng, batch)
		w := randSlice(rng, Hidden+1)
		if trial%4 == 0 {
			// A zero delta makes a −0 product against every negative
			// weight, which the sum started from zero turns into +0.
			d[rng.Intn(batch)] = 0
		}
		acts := randSlice(rng, batch*ld)
		for i := range acts {
			acts[i] = 1 / (1 + math.Exp(-acts[i]))
		}
		got := make([]float64, batch*ld)
		want := make([]float64, batch*ld)
		hiddenEtaAVX2(got, d, w, acts, batch, ld, lr)
		hiddenEtaScalar(want, d, w, acts, batch, ld, lr)
		if i := diffIndex(got, want); i >= 0 {
			t.Fatalf("trial %d (batch=%d ld=%d): t[%d] = %x, want %x",
				trial, batch, ld, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
		// η·δ is lr times the reference trainer's δ, element by element.
		delta := make([]float64, batch*Hidden)
		packed := make([]float64, batch*Hidden)
		for b := 0; b < batch; b++ {
			copy(packed[b*Hidden:(b+1)*Hidden], acts[b*ld:])
		}
		hiddenDelta(delta, d, w, packed, batch, Hidden, 1)
		for b := 0; b < batch; b++ {
			for j := 0; j < Hidden; j++ {
				g := got[b*ld+j]
				if !bitsEqual(lr*delta[b*Hidden+j], g) {
					t.Fatalf("trial %d: sample %d unit %d: η·δ %v, lr·δ %v", trial, b, j, g, lr*delta[b*Hidden+j])
				}
				if d[b] == 0 && math.Signbit(g) {
					t.Fatalf("trial %d: sample %d unit %d: zero delta gave η·δ −0, want +0", trial, b, j)
				}
			}
		}
	}
}
