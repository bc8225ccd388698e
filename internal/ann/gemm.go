// Batched linear-algebra kernels for the trainer: the output unit's
// forward pass and a fused momentum/AXPY update of its flat weights, each
// consuming a whole mini-batch per call, plus the forward, η·δ and update
// kernels of the feature-major hidden layer the lockstep trainer and the
// stacked ensemble keep (lockstep.go, stack.go).
//
// Register blocking is over *independent* outputs only — every individual
// output accumulates in exactly the order the per-sample path uses (bias
// first, then ascending feature index), so a batch of one is bit-for-bit
// identical to per-sample training. That equivalence is the correctness
// anchor the trainer is tested against (see train_batch_test.go).
package ann

import "math"

// fastExp computes eˣ by the classic range reduction x = k·ln2 + r with
// |r| ≤ ln2/2 and a degree-8 polynomial for eʳ, assembled as 2ᵏ·eʳ through
// direct exponent-bit construction. Worst-case relative error is ≈3·10⁻¹⁰ —
// ten orders of magnitude below the gradient noise of stochastic training —
// at roughly half the latency of math.Exp, which sits on the trainer's
// critical path through every sigmoid. Inputs beyond the normal-number
// range clamp (underflow flushes to zero), which for the sigmoid means
// exact saturation at 0 or 1.
func fastExp(x float64) float64 {
	const (
		log2e = 1.4426950408889634
		ln2hi = 6.93147180369123816490e-01
		ln2lo = 1.90821492927058770002e-10
	)
	if x > 709 {
		x = 709
	} else if x < -708 {
		return 0
	}
	k := math.Floor(float64(x*log2e) + 0.5)
	r := (x - float64(k*ln2hi)) - float64(k*ln2lo)
	// Horner's scheme, innermost term first.
	p := 1.0/5040 + float64(r*(1.0/40320))
	p = 1.0/720 + float64(r*p)
	p = 1.0/120 + float64(r*p)
	p = 1.0/24 + float64(r*p)
	p = 1.0/6 + float64(r*p)
	p = 0.5 + float64(r*p)
	p = 1 + float64(r*p)
	p = 1 + float64(r*p)
	return p * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// denseForward computes the linear output unit for a mini-batch:
//
//	out[b] = w[Hidden] + Σ_i x[b·ldx+i] · w[i]
//
// x holds batch rows of Hidden activations at stride ldx (≥ Hidden). Each
// sum accumulates bias first, then ascending i — the order of the
// per-sample reference forward pass (Network.forward, reference_test.go).
func denseForwardScalar(out, x, w []float64, batch, ldx int) {
	for b := 0; b < batch; b++ {
		xb := x[b*ldx:][:Hidden]
		sum := w[Hidden]
		for i, wv := range w[:Hidden] {
			sum += float64(wv * xb[i])
		}
		out[b] = sum
	}
}

// stackForward computes the hidden activations of a stacked ensemble (see
// stack.go) for one input: with lanes = len(acts) and wT holding
// (len(x)+1) feature-major rows of lanes columns, bias row first,
//
//	acts[u] = sigmoid( wT[u] + Σ_i wT[(i+1)·lanes+u] · x[i] )
//
// Each lane accumulates bias first, then ascending i — the reference
// Network.forward's order for the hidden unit the lane holds.
func stackForwardScalar(acts, wT, x []float64) {
	lanes := len(acts)
	copy(acts, wT[:lanes])
	for i, xv := range x {
		for u, w := range wT[(i+1)*lanes:][:lanes] {
			acts[u] += float64(w * xv)
		}
	}
	for u, s := range acts {
		acts[u] = sigmoid(s)
	}
}

// hiddenEta runs the backprop recurrence from the linear output unit into
// the lanes of a feature-major hidden layer, already multiplied by the
// learning rate: for every sample b and hidden unit j,
//
//	t[b·ld+j] = lr · ( (0 + w[j]·d[b]) · a·(1−a) )
//
// where a = acts[b·ld+j], d holds the batch's output deltas, w is the
// output unit's weights and ld is the row stride of t and acts. Per element
// this is the per-sample backward pass's δ — a one-term sum started from
// zero, so a −0 product becomes +0 — followed by the η·δ that sgdStep forms
// from it, so the update that consumes t sees the reference's bits.
func hiddenEtaScalar(t, d, w, acts []float64, batch, ld int, lr float64) {
	for b, db := range d[:batch] {
		tb := t[b*ld:][:Hidden]
		ab := acts[b*ld:][:Hidden]
		for j, wj := range w[:Hidden] {
			var sum float64
			sum += float64(wj * db)
			a := ab[j]
			tb[j] = lr * (sum * a * (1 - a))
		}
	}
}

// sgdFeatureMajor is sgdStep for a layer stored feature-major: w and vel
// hold rows rows of lanes columns, lane u being one unit and row i its
// weight for input i. t holds the batch's η·δ, one row of lanes per
// sample, and x the batch's input rows at stride ldx, each starting with
// the constant 1 that row 0 (the biases) multiplies:
//
//	v ← μ·v − Σ_b t_b ⊗ x_b ;  w ← w + v
//
// Every element gets sgdStep's operation sequence for the weight it holds:
// the momentum fold with the first block of four samples, one subtraction
// per later block or straggler, then w += v. A bias weight multiplies the
// constant 1, and t·1 = t exactly, so it gets sgdStep's bias sequence too.
func sgdFeatureMajorScalar(w, vel, t, x []float64, batch, rows, lanes, ldx int, momentum float64) {
	for i := 0; i < rows; i++ {
		wr := w[i*lanes:][:lanes]
		vr := vel[i*lanes:][:lanes]
		var b int
		if batch >= 4 {
			x0, x1, x2, x3 := x[i], x[ldx+i], x[2*ldx+i], x[3*ldx+i]
			t0 := t[:lanes]
			t1 := t[lanes:][:lanes]
			t2 := t[2*lanes:][:lanes]
			t3 := t[3*lanes:][:lanes]
			for u := range vr {
				vr[u] = float64(momentum*vr[u]) - (float64(t0[u]*x0) + float64(t1[u]*x1) + float64(t2[u]*x2) + float64(t3[u]*x3))
			}
			b = 4
		} else {
			for u, vv := range vr {
				vr[u] = momentum * vv
			}
		}
		for ; b+4 <= batch; b += 4 {
			x0, x1, x2, x3 := x[b*ldx+i], x[(b+1)*ldx+i], x[(b+2)*ldx+i], x[(b+3)*ldx+i]
			t0 := t[b*lanes:][:lanes]
			t1 := t[(b+1)*lanes:][:lanes]
			t2 := t[(b+2)*lanes:][:lanes]
			t3 := t[(b+3)*lanes:][:lanes]
			for u := range vr {
				vr[u] -= float64(t0[u]*x0) + float64(t1[u]*x1) + float64(t2[u]*x2) + float64(t3[u]*x3)
			}
		}
		for ; b < batch; b++ {
			xv := x[b*ldx+i]
			for u, tv := range t[b*lanes:][:lanes] {
				vr[u] -= float64(tv * xv)
			}
		}
		for u, vv := range vr {
			wr[u] += vv
		}
	}
}

// sgdStep applies one summed-gradient step for a whole mini-batch to the
// linear output unit's weights — Hidden input weights, then the bias —
// fusing the momentum update and the AXPY into one pass:
//
//	v ← μ·v − η·Σ_b δ_b·[x_b, 1] ;  w ← w + v
//
// d holds the batch's output deltas and x its hidden activations, one row
// of Hidden per sample at stride ldx. The momentum decay is folded first,
// then four samples are drained per velocity traversal with the per-sample
// term computed as (η·δ)·x. At batch == 1 this is exactly
// v[i] = μ·v[i] − (η·δ)·x[i], reproducing the per-sample update
// bit-for-bit.
func sgdStepScalar(w, vel, d, x []float64, batch, ldx int, lr, momentum float64) {
	w, v := w[:Hidden+1], vel[:Hidden+1]
	var b int
	if batch >= 4 {
		// The first block folds the momentum decay into its traversal,
		// sparing a separate pass over the velocities.
		t0, t1, t2, t3 := float64(lr*d[0]), float64(lr*d[1]), float64(lr*d[2]), float64(lr*d[3])
		x0 := x[:Hidden]
		x1 := x[ldx:][:Hidden]
		x2 := x[2*ldx:][:Hidden]
		x3 := x[3*ldx:][:Hidden]
		for i := range x0 {
			v[i] = float64(momentum*v[i]) - (float64(t0*x0[i]) + float64(t1*x1[i]) + float64(t2*x2[i]) + float64(t3*x3[i]))
		}
		v[Hidden] = float64(momentum*v[Hidden]) - (t0 + t1 + t2 + t3)
		b = 4
	} else {
		for i, vv := range v {
			v[i] = momentum * vv
		}
	}
	for ; b+4 <= batch; b += 4 {
		t0, t1, t2, t3 := float64(lr*d[b]), float64(lr*d[b+1]), float64(lr*d[b+2]), float64(lr*d[b+3])
		x0 := x[b*ldx:][:Hidden]
		x1 := x[(b+1)*ldx:][:Hidden]
		x2 := x[(b+2)*ldx:][:Hidden]
		x3 := x[(b+3)*ldx:][:Hidden]
		for i := range x0 {
			v[i] -= float64(t0*x0[i]) + float64(t1*x1[i]) + float64(t2*x2[i]) + float64(t3*x3[i])
		}
		v[Hidden] -= t0 + t1 + t2 + t3
	}
	for ; b < batch; b++ {
		t := float64(lr * d[b])
		for i, xv := range x[b*ldx:][:Hidden] {
			v[i] -= float64(t * xv)
		}
		v[Hidden] -= t
	}
	for i, vv := range v {
		w[i] += vv
	}
}
