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

// The assembly hard-codes the output unit's fan-in: Hidden = 16, four
// vectors of four. This constant does not compile under any other width.
const _ = uint(Hidden-16) + uint(16-Hidden)

//go:noescape
func sigmoidVec4(v *float64, n int)

//go:noescape
func dotRows4(out, x, w *float64, rows, ldx int)

//go:noescape
func stackSums4(acc, wT, x *float64, lanes, inDim int)

//go:noescape
func deltaRows4(t, acts, w, d *float64, rows, ld int, scale float64)

//go:noescape
func sgdFeatureMajor4(w, vel, t, x *float64, batch, rows, lanes, ldx int, mom float64)

//go:noescape
func sgdFoldAll(vel, x0, x1, x2, x3, d *float64, lr, mom float64)

//go:noescape
func sgdAxpyAll(vel, x0, x1, x2, x3, d *float64, lr float64)

//go:noescape
func axpyNegAll(vel, x, d *float64, lr float64)

//go:noescape
func vecScale4(v *float64, n int, s float64)

//go:noescape
func vecAdd4(dst, src *float64, n int)

// denseForwardAVX2 computes the output unit with four rows per instruction
// straight from their stride — one sum chain per row, so no packing buffer
// — and the row tail through the scalar reference.
func denseForwardAVX2(out, x, w []float64, batch, ldx int) {
	b4 := batch &^ 3
	if b4 > 0 {
		_ = x[(b4-1)*ldx+Hidden-1]
		_ = w[Hidden]
		_ = out[b4-1]
		dotRows4(&out[0], &x[0], &w[0], b4, ldx)
	}
	if b4 < batch {
		denseForwardScalar(out[b4:], x[b4*ldx:], w, batch-b4, ldx)
	}
}

// stackForwardAVX2 computes a stacked ensemble's hidden activations four
// lanes per instruction: one pass over the feature-major weights for the
// pre-activations, one sigmoid pass over all lanes. A lane is one hidden
// unit, so nothing is reduced across lanes. len(acts) is a multiple of
// Hidden.
func stackForwardAVX2(acts, wT, x []float64) {
	if len(acts) == 0 || len(x) == 0 {
		stackForwardScalar(acts, wT, x)
		return
	}
	stackSums4(&acts[0], &wT[0], &x[0], len(acts), len(x))
	sigmoidVec4(&acts[0], len(acts))
}

// hiddenEtaAVX2 runs the scaled backprop recurrence with four hidden units
// per vector lane — a sample's Hidden units in four vectors — and the whole
// batch per call. Each lane gets the scalar reference's expression.
func hiddenEtaAVX2(t, d, w, acts []float64, batch, ld int, lr float64) {
	if batch == 0 {
		return
	}
	// Panic, as the scalar reference would, before the assembly touches
	// memory a slice does not cover.
	_ = t[(batch-1)*ld+Hidden-1]
	_ = acts[(batch-1)*ld+Hidden-1]
	_ = d[batch-1]
	_ = w[Hidden-1]
	deltaRows4(&t[0], &acts[0], &w[0], &d[0], batch, ld, lr)
}

// sgdFeatureMajorAVX2 runs the feature-major update four lanes per
// instruction, carrying each velocity through the whole batch in a
// register before w += v. lanes is a multiple of Hidden.
func sgdFeatureMajorAVX2(w, vel, t, x []float64, batch, rows, lanes, ldx int, momentum float64) {
	if lanes == 0 || rows == 0 || batch == 0 {
		sgdFeatureMajorScalar(w, vel, t, x, batch, rows, lanes, ldx, momentum)
		return
	}
	_ = w[rows*lanes-1]
	_ = vel[rows*lanes-1]
	_ = t[batch*lanes-1]
	_ = x[(batch-1)*ldx+rows-1]
	sgdFeatureMajor4(&w[0], &vel[0], &t[0], &x[0], batch, rows, lanes, ldx, momentum)
}

// sgdStepAVX2 applies the output unit's fused momentum/AXPY update with
// four weights per vector lane: every pass runs the Hidden input weights as
// four vectors and the bias as a scalar. Each element receives the
// reference's exact operation sequence — momentum fold first, then one
// subtraction per sample block and straggler, then w += vel.
func sgdStepAVX2(w, vel, d, x []float64, batch, ldx int, lr, momentum float64) {
	_ = w[Hidden]
	_ = vel[Hidden]
	if batch > 0 {
		_ = d[batch-1]
		_ = x[(batch-1)*ldx+Hidden-1]
	}
	var b int
	if batch >= 4 {
		sgdFoldAll(&vel[0], &x[0], &x[ldx], &x[2*ldx], &x[3*ldx], &d[0], lr, momentum)
		b = 4
	} else {
		vecScale4(&vel[0], Hidden, momentum)
		vel[Hidden] = momentum * vel[Hidden]
	}
	for ; b+4 <= batch; b += 4 {
		sgdAxpyAll(&vel[0], &x[b*ldx], &x[(b+1)*ldx], &x[(b+2)*ldx], &x[(b+3)*ldx], &d[b], lr)
	}
	for ; b < batch; b++ {
		axpyNegAll(&vel[0], &x[b*ldx], &d[b], lr)
	}
	vecAdd4(&w[0], &vel[0], Hidden)
	w[Hidden] += vel[Hidden]
}
