//go:build amd64 && !actor_noasm

// AVX2 bindings of the trainer kernels: thin Go drivers over the assembly
// routines in gemm_amd64.s. Each driver keeps the scalar reference's loop
// structure, hands the vector interior to assembly — four lanes wide, or
// one Hidden block of sixteen lanes where the lanes are hidden units — and
// finishes tails with the reference's own code, so every output is
// produced by the exact scalar operation sequence whether it went through
// a vector lane or the tail. See gemm_simd_test.go for the fuzzed
// bit-identity enforcement.
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

// The assembly hard-codes the output unit's fan-in and the lane block of
// the feature-major kernels: Hidden = 16, four vectors of four. This
// constant does not compile under any other width.
const _ = uint(Hidden-16) + uint(16-Hidden)

//go:noescape
func dotRows4(out, x, w *float64, rows, ldx int)

//go:noescape
func stackForward16(acts, wT, x *float64, lanes, inDim int)

//go:noescape
func deltaRows4(t, acts, w, d *float64, rows, ld int, scale float64)

//go:noescape
func sgdFeatureMajor16(w, vel, t, x *float64, batch, rows, lanes, ldx int, mom float64)

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

// stackForwardAVX2 computes a stacked ensemble's hidden activations in one
// pass, one Hidden block of sixteen lanes per step: the block's
// pre-activations over the feature-major weights, then its sigmoid as four
// interleaved vector chains. A lane is one hidden unit, so nothing is
// reduced across lanes. len(acts) is a multiple of Hidden.
func stackForwardAVX2(acts, wT, x []float64) {
	if len(acts) == 0 || len(x) == 0 {
		stackForwardScalar(acts, wT, x)
		return
	}
	mustHiddenBlocks(len(acts))
	_ = wT[(len(x)+1)*len(acts)-1]
	stackForward16(&acts[0], &wT[0], &x[0], len(acts), len(x))
}

// mustHiddenBlocks panics unless lanes is a whole number of Hidden blocks,
// the only width the sixteen-lane kernels advance by.
func mustHiddenBlocks(lanes int) {
	if lanes%Hidden != 0 {
		panic("ann: lane count is not a multiple of Hidden")
	}
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

// sgdFeatureMajorAVX2 runs the feature-major update one Hidden block of
// sixteen lanes per step, carrying the block's four velocity vectors
// through the whole batch in registers before w += v. lanes is a multiple
// of Hidden.
func sgdFeatureMajorAVX2(w, vel, t, x []float64, batch, rows, lanes, ldx int, momentum float64) {
	if lanes == 0 || rows == 0 || batch == 0 {
		sgdFeatureMajorScalar(w, vel, t, x, batch, rows, lanes, ldx, momentum)
		return
	}
	mustHiddenBlocks(lanes)
	_ = w[rows*lanes-1]
	_ = vel[rows*lanes-1]
	_ = t[batch*lanes-1]
	_ = x[(batch-1)*ldx+rows-1]
	sgdFeatureMajor16(&w[0], &vel[0], &t[0], &x[0], batch, rows, lanes, ldx, momentum)
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
