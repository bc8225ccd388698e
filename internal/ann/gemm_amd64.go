//go:build amd64 && !actor_noasm

// AVX2 bindings of the trainer kernels: thin Go drivers over the assembly
// routines in gemm_amd64.s. Each driver keeps the scalar reference's loop
// structure, hands the 4-wide interior to assembly and finishes tails with
// the reference's own code — so every output is produced by the exact
// scalar operation sequence whether it went through a vector lane or the
// tail. See gemm_simd_test.go for the fuzzed bit-identity enforcement.
package ann

import "github.com/greenhpc/actor/internal/simd"

func init() {
	if simd.Enabled() {
		denseForward = denseForwardAVX2
		hiddenEta = hiddenEtaAVX2
		sgdStep = sgdStepAVX2
		sgdFeatureMajor = sgdFeatureMajorAVX2
		stackForward = stackForwardAVX2
	}
}

//go:noescape
func expVec4(v *float64, n int)

//go:noescape
func sigmoidVec4(v *float64, n int)

//go:noescape
func dotRows4(out, x, w *float64, rows, inDim, ldx int)

//go:noescape
func stackSums4(acc, wT, x *float64, lanes, inDim int)

//go:noescape
func deltaRows4(d, acts, wNext, dNext *float64, rows, ld, units4, unitsNext, rowW int, scale float64)

//go:noescape
func sgdFeatureMajor4(w, vel, t, x *float64, batch, rows, lanes, ldx int, mom float64)

//go:noescape
func sgdFoldAll(vel, x0, x1, x2, x3, d *float64, units, inDim int, lr, mom float64)

//go:noescape
func sgdAxpyAll(vel, x0, x1, x2, x3, d *float64, units, inDim int, lr float64)

//go:noescape
func axpyNegAll(vel, x, d *float64, units, inDim int, lr float64)

//go:noescape
func vecScale4(v *float64, n int, s float64)

//go:noescape
func vecAdd4(dst, src *float64, n int)

// expVec applies fastExp elementwise: four lanes per instruction, scalar
// fastExp for the tail.
func expVec(v []float64) {
	if n4 := len(v) &^ 3; n4 > 0 {
		expVec4(&v[0], n4)
	}
	for i := len(v) &^ 3; i < len(v); i++ {
		v[i] = fastExp(v[i])
	}
}

// sigmoidVec applies the sigmoid elementwise (same fastExp core).
func sigmoidVec(v []float64) {
	if n4 := len(v) &^ 3; n4 > 0 {
		sigmoidVec4(&v[0], n4)
	}
	for i := len(v) &^ 3; i < len(v); i++ {
		v[i] = sigmoid(v[i])
	}
}

// denseForwardAVX2 computes the output unit with four rows per instruction
// straight from their stride — one sum chain per row, so no packing buffer
// — and the row tail through the scalar reference.
func denseForwardAVX2(out, x, w []float64, batch, inDim, ldx int) {
	b4 := batch &^ 3
	if b4 == 0 || inDim == 0 {
		denseForwardScalar(out, x, w, batch, inDim, ldx)
		return
	}
	_ = x[(b4-1)*ldx+inDim-1]
	_ = w[inDim]
	_ = out[b4-1]
	dotRows4(&out[0], &x[0], &w[0], b4, inDim, ldx)
	if b4 < batch {
		denseForwardScalar(out[b4:], x[b4*ldx:], w, batch-b4, inDim, ldx)
	}
}

// stackForwardAVX2 computes a stacked ensemble's hidden activations four
// lanes per instruction: one pass over the feature-major weights for the
// pre-activations, one sigmoid pass over all lanes. A lane is one hidden
// unit, so nothing is reduced across lanes. len(acts) is a multiple of 4
// (newStack pads it).
func stackForwardAVX2(acts, wT, x []float64) {
	if len(acts) == 0 || len(x) == 0 {
		stackForwardScalar(acts, wT, x)
		return
	}
	stackSums4(&acts[0], &wT[0], &x[0], len(acts), len(x))
	sigmoidVec4(&acts[0], len(acts))
}

// hiddenEtaAVX2 runs the scaled backprop recurrence with four units per
// vector lane and the whole batch per call. wNext is row-major in k, so
// the four j-columns of one k are contiguous — no transpose needed; the
// k-sum ascends inside each lane. The unit tail runs the scalar
// reference's expression.
func hiddenEtaAVX2(t, dNext, wNext, acts []float64, batch, units, unitsNext, ld int, lr float64) {
	units4 := units &^ 3
	if units4 == 0 || unitsNext == 0 || batch == 0 {
		hiddenEtaScalar(t, dNext, wNext, acts, batch, units, unitsNext, ld, lr)
		return
	}
	// Panic, as the scalar reference would, before the assembly touches
	// memory a slice does not cover.
	_ = t[(batch-1)*ld+units-1]
	_ = acts[(batch-1)*ld+units-1]
	_ = dNext[batch*unitsNext-1]
	_ = wNext[unitsNext*(units+1)-1]
	deltaRows4(&t[0], &acts[0], &wNext[0], &dNext[0], batch, ld, units4, unitsNext, units+1, lr)
	if units4 == units {
		return
	}
	rowW := units + 1
	for b := 0; b < batch; b++ {
		tb := t[b*ld:][:units]
		ab := acts[b*ld:][:units]
		nd := dNext[b*unitsNext:][:unitsNext]
		for j := units4; j < units; j++ {
			var sum float64
			for k, ndk := range nd {
				sum += wNext[k*rowW+j] * ndk
			}
			a := ab[j]
			tb[j] = lr * (sum * a * (1 - a))
		}
	}
}

// sgdFeatureMajorAVX2 runs the feature-major update four lanes per
// instruction, carrying each velocity through the whole batch in a
// register before w += v. Lane counts that are not a multiple of four
// (the trainer always pads to four) take the scalar reference.
func sgdFeatureMajorAVX2(w, vel, t, x []float64, batch, rows, lanes, ldx int, momentum float64) {
	if lanes&3 != 0 || lanes == 0 || rows == 0 || batch == 0 {
		sgdFeatureMajorScalar(w, vel, t, x, batch, rows, lanes, ldx, momentum)
		return
	}
	_ = w[rows*lanes-1]
	_ = vel[rows*lanes-1]
	_ = t[batch*lanes-1]
	_ = x[(batch-1)*ldx+rows-1]
	sgdFeatureMajor4(&w[0], &vel[0], &t[0], &x[0], batch, rows, lanes, ldx, momentum)
}

// sgdStepAVX2 applies the fused momentum/AXPY update with four weight
// indices per vector lane. The 4-sample blocks run whole layers per
// assembly call (the unit loop, the i tails and the bias column all live
// in the routine); each vel element still receives the reference's exact
// operation sequence — momentum fold first, then one subtraction per
// sample block and straggler, then w += vel — only the j/b loop nesting
// is swapped, which no element can observe.
func sgdStepAVX2(w, vel, d, x []float64, batch, units, inDim, ldx int, lr, momentum float64) {
	if units == 0 || inDim == 0 {
		sgdStepScalar(w, vel, d, x, batch, units, inDim, ldx, lr, momentum)
		return
	}
	n := units * (inDim + 1)
	var b int
	if batch >= 4 {
		sgdFoldAll(&vel[0], &x[0], &x[ldx], &x[2*ldx], &x[3*ldx], &d[0],
			units, inDim, lr, momentum)
		b = 4
	} else {
		if r4 := n &^ 3; r4 > 0 {
			vecScale4(&vel[0], r4, momentum)
		}
		for i := n &^ 3; i < n; i++ {
			vel[i] = momentum * vel[i]
		}
	}
	for ; b+4 <= batch; b += 4 {
		sgdAxpyAll(&vel[0], &x[(b+0)*ldx], &x[(b+1)*ldx], &x[(b+2)*ldx], &x[(b+3)*ldx],
			&d[b*units], units, inDim, lr)
	}
	for ; b < batch; b++ {
		axpyNegAll(&vel[0], &x[b*ldx], &d[b*units], units, inDim, lr)
	}
	if r4 := n &^ 3; r4 > 0 {
		vecAdd4(&w[0], &vel[0], r4)
	}
	for i := n &^ 3; i < n; i++ {
		w[i] += vel[i]
	}
}
