//go:build amd64 && !actor_noasm

// AVX2 bindings of the trainer kernels: thin Go drivers over the assembly
// routines in gemm_amd64.s. Each driver keeps the scalar reference's loop
// structure, hands the 4-wide interior to assembly and finishes tails with
// the reference's own code — so every output is produced by the exact
// scalar operation sequence whether it went through a vector lane or the
// tail. See gemm_simd_test.go for the fuzzed bit-identity enforcement.
package ann

import (
	"sync"

	"github.com/greenhpc/actor/internal/simd"
)

func init() {
	if simd.Enabled() {
		denseForward = denseForwardAVX2
		hiddenDelta = hiddenDeltaAVX2
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
func denseSumsT4(tmp, w, xT *float64, units, inDim int)

//go:noescape
func dotRows4(out, x, w *float64, rows, inDim, ldx int)

//go:noescape
func stackSums4(acc, wT, x *float64, lanes, inDim int)

//go:noescape
func packT4(xT, x0, x1, x2, x3 *float64, n int)

//go:noescape
func scatterT4(o0, o1, o2, o3, tmp *float64, n int)

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

// fwdBuf is the per-call scratch of denseForwardAVX2: the column-major
// 4-sample input pack and the 4-wide pre-activation block.
type fwdBuf struct {
	xT  []float64
	tmp []float64
}

var fwdPool = sync.Pool{New: func() any { return new(fwdBuf) }}

func (b *fwdBuf) ensure(xt, tmp int) {
	if cap(b.xT) < xt {
		b.xT = make([]float64, xt)
	}
	b.xT = b.xT[:xt]
	if cap(b.tmp) < tmp {
		b.tmp = make([]float64, tmp)
	}
	b.tmp = b.tmp[:tmp]
}

// denseForwardAVX2 computes the batched dense layer with four samples per
// vector lane. The group's rows are packed column-major once (xT[i*4+k] =
// sample k's feature i) so the assembly kernel streams contiguous loads;
// each sample's accumulator still sums bias-first then ascending i, which
// keeps every output bit-identical to denseForwardScalar.
func denseForwardAVX2(out, x, w []float64, batch, inDim, units, ldx int, sigmoidAct bool) {
	if units == 0 || inDim == 0 {
		denseForwardScalar(out, x, w, batch, inDim, units, ldx, sigmoidAct)
		return
	}
	rowW := inDim + 1
	if units == 1 {
		// One unit (an output layer): a single sum chain per row, so
		// four rows share each instruction straight from their stride —
		// no packing buffer to fill or scatter.
		b4 := batch &^ 3
		if b4 > 0 {
			_ = x[(b4-1)*ldx+inDim-1]
			_ = w[inDim]
			_ = out[b4-1]
			dotRows4(&out[0], &x[0], &w[0], b4, inDim, ldx)
			if sigmoidAct {
				sigmoidVec4(&out[0], b4)
			}
		}
		for b := b4; b < batch; b++ {
			sum := w[inDim]
			for i, wv := range w[:inDim] {
				sum += wv * x[b*ldx+i]
			}
			if sigmoidAct {
				sum = sigmoid(sum)
			}
			out[b] = sum
		}
		return
	}
	buf := fwdPool.Get().(*fwdBuf)
	buf.ensure(inDim*4, units*4)
	var b int
	for b = 0; b+4 <= batch; b += 4 {
		packT4(&buf.xT[0], &x[(b+0)*ldx], &x[(b+1)*ldx], &x[(b+2)*ldx], &x[(b+3)*ldx], inDim)
		denseSumsT4(&buf.tmp[0], &w[0], &buf.xT[0], units, inDim)
		if sigmoidAct {
			sigmoidVec4(&buf.tmp[0], units*4)
		}
		scatterT4(&out[(b+0)*units], &out[(b+1)*units], &out[(b+2)*units], &out[(b+3)*units],
			&buf.tmp[0], units)
	}
	// Sample tail: the scalar reference's own per-sample loop.
	for ; b < batch; b++ {
		xb := x[b*ldx:][:inDim]
		for j := 0; j < units; j++ {
			row := w[j*rowW:][:rowW]
			sum := row[inDim]
			for i, wv := range row[:inDim] {
				sum += wv * xb[i]
			}
			if sigmoidAct {
				sum = sigmoid(sum)
			}
			out[b*units+j] = sum
		}
	}
	fwdPool.Put(buf)
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

// hiddenDeltaAVX2 runs the backprop recurrence with four units per vector
// lane: hiddenEtaAVX2 on contiguous rows at scale 1, which multiplies
// every δ by 1 — exact, so the bits are hiddenDeltaScalar's.
func hiddenDeltaAVX2(d, dNext, wNext, acts []float64, batch, units, unitsNext int) {
	hiddenEtaAVX2(d, dNext, wNext, acts, batch, units, unitsNext, units, 1)
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
