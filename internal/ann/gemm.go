// Batched linear-algebra kernels for the trainer: a dense forward layer
// with fused sigmoid, the batched backprop delta recurrence, and a fused
// momentum/AXPY weight update that consumes a whole mini-batch per call —
// each for the network's flat row-major layers — plus the η·δ and update
// kernels of the feature-major first layer the lockstep trainer keeps
// (lockstep.go).
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
	k := math.Floor(x*log2e + 0.5)
	r := (x - k*ln2hi) - k*ln2lo
	p := 1 + r*(1+r*(0.5+r*(1.0/6+r*(1.0/24+r*(1.0/120+r*(1.0/720+r*(1.0/5040+r*(1.0/40320))))))))
	return p * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// denseForward computes one layer's activations for a mini-batch:
//
//	out[b·units+j] = act( w[j·(inDim+1)+inDim] + Σ_i x[b·ldx+i] · w[j·(inDim+1)+i] )
//
// where act is the sigmoid for hidden layers and identity for the output
// layer. x holds batch rows of length ldx (≥ inDim); out is batch×units.
func denseForwardScalar(out, x, w []float64, batch, inDim, units, ldx int, sigmoidAct bool) {
	rowW := inDim + 1
	var b int
	// Four samples per pass share one traversal of the weight row. Each
	// sample keeps its own accumulator, so per-output rounding matches the
	// per-sample forward exactly.
	for b = 0; b+4 <= batch; b += 4 {
		x0 := x[(b+0)*ldx:][:inDim]
		x1 := x[(b+1)*ldx:][:inDim]
		x2 := x[(b+2)*ldx:][:inDim]
		x3 := x[(b+3)*ldx:][:inDim]
		for j := 0; j < units; j++ {
			row := w[j*rowW:][:rowW]
			bias := row[inDim]
			s0, s1, s2, s3 := bias, bias, bias, bias
			for i, wv := range row[:inDim] {
				s0 += wv * x0[i]
				s1 += wv * x1[i]
				s2 += wv * x2[i]
				s3 += wv * x3[i]
			}
			if sigmoidAct {
				s0, s1, s2, s3 = sigmoid(s0), sigmoid(s1), sigmoid(s2), sigmoid(s3)
			}
			out[(b+0)*units+j] = s0
			out[(b+1)*units+j] = s1
			out[(b+2)*units+j] = s2
			out[(b+3)*units+j] = s3
		}
	}
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
}

// stackForward computes the hidden activations of a stacked ensemble (see
// stack.go) for one input: with lanes = len(acts) and wT holding
// (len(x)+1) feature-major rows of lanes columns, bias row first,
//
//	acts[u] = sigmoid( wT[u] + Σ_i wT[(i+1)·lanes+u] · x[i] )
//
// Each lane accumulates bias first, then ascending i — Network.forward's
// order for the hidden unit the lane holds.
func stackForwardScalar(acts, wT, x []float64) {
	lanes := len(acts)
	copy(acts, wT[:lanes])
	for i, xv := range x {
		for u, w := range wT[(i+1)*lanes:][:lanes] {
			acts[u] += w * xv
		}
	}
	for u, s := range acts {
		acts[u] = sigmoid(s)
	}
}

// hiddenDelta runs the backprop recurrence for one hidden layer over a
// mini-batch: for every sample b and unit j,
//
//	d[b·units+j] = ( Σ_k wNext[k·(units+1)+j] · dNext[b·unitsNext+k] ) · a·(1−a)
//
// where a is the unit's forward activation. The k-sum runs in ascending
// order, matching the per-sample backward pass bit-for-bit.
func hiddenDeltaScalar(d, dNext, wNext, acts []float64, batch, units, unitsNext int) {
	rowW := units + 1
	var b int
	// Four samples share one walk down each weight column; every sample
	// keeps its own k-ordered accumulator.
	for b = 0; b+4 <= batch; b += 4 {
		d0 := d[(b+0)*units:][:units]
		d1 := d[(b+1)*units:][:units]
		d2 := d[(b+2)*units:][:units]
		d3 := d[(b+3)*units:][:units]
		n0 := dNext[(b+0)*unitsNext:][:unitsNext]
		n1 := dNext[(b+1)*unitsNext:][:unitsNext]
		n2 := dNext[(b+2)*unitsNext:][:unitsNext]
		n3 := dNext[(b+3)*unitsNext:][:unitsNext]
		a0 := acts[(b+0)*units:][:units]
		a1 := acts[(b+1)*units:][:units]
		a2 := acts[(b+2)*units:][:units]
		a3 := acts[(b+3)*units:][:units]
		for j := 0; j < units; j++ {
			var s0, s1, s2, s3 float64
			for k := 0; k < unitsNext; k++ {
				wv := wNext[k*rowW+j]
				s0 += wv * n0[k]
				s1 += wv * n1[k]
				s2 += wv * n2[k]
				s3 += wv * n3[k]
			}
			d0[j] = s0 * a0[j] * (1 - a0[j])
			d1[j] = s1 * a1[j] * (1 - a1[j])
			d2[j] = s2 * a2[j] * (1 - a2[j])
			d3[j] = s3 * a3[j] * (1 - a3[j])
		}
	}
	for ; b < batch; b++ {
		db := d[b*units:][:units]
		nd := dNext[b*unitsNext:][:unitsNext]
		ab := acts[b*units:][:units]
		for j := range db {
			var sum float64
			for k, ndk := range nd {
				sum += wNext[k*rowW+j] * ndk
			}
			a := ab[j]
			db[j] = sum * a * (1 - a)
		}
	}
}

// hiddenEta is hiddenDelta for the lanes of a feature-major layer, already
// multiplied by the learning rate: for every sample b and unit j,
//
//	t[b·ld+j] = lr · ( ( Σ_k wNext[k·(units+1)+j] · dNext[b·unitsNext+k] ) · a·(1−a) )
//
// where a = acts[b·ld+j] and ld is the row stride of t and acts. Per
// element it is hiddenDelta's δ followed by the η·δ that sgdStep forms from
// it, so the update that consumes t sees the reference's bits.
func hiddenEtaScalar(t, dNext, wNext, acts []float64, batch, units, unitsNext, ld int, lr float64) {
	rowW := units + 1
	for b := 0; b < batch; b++ {
		tb := t[b*ld:][:units]
		ab := acts[b*ld:][:units]
		nd := dNext[b*unitsNext:][:unitsNext]
		for j := range tb {
			var sum float64
			for k, ndk := range nd {
				sum += wNext[k*rowW+j] * ndk
			}
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
				vr[u] = momentum*vr[u] - (t0[u]*x0 + t1[u]*x1 + t2[u]*x2 + t3[u]*x3)
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
				vr[u] -= t0[u]*x0 + t1[u]*x1 + t2[u]*x2 + t3[u]*x3
			}
		}
		for ; b < batch; b++ {
			xv := x[b*ldx+i]
			for u, tv := range t[b*lanes:][:lanes] {
				vr[u] -= tv * xv
			}
		}
		for u, vv := range vr {
			wr[u] += vv
		}
	}
}

// sgdStep applies one summed-gradient step for a whole mini-batch to a
// layer's flat weights, fusing the momentum update and the AXPY into one
// pass over each weight row:
//
//	v ← μ·v − η·Σ_b δ_b ⊗ [x_b, 1] ;  w ← w + v
//
// The momentum decay is folded first, then four samples are drained per
// velocity traversal with the per-sample term computed as (η·δ)·x. At
// batch == 1 this is exactly v[i] = μ·v[i] − (η·δ)·x[i], reproducing the
// per-sample update bit-for-bit.
func sgdStepScalar(w, vel, d, x []float64, batch, units, inDim, ldx int, lr, momentum float64) {
	rowW := inDim + 1
	for j := 0; j < units; j++ {
		row := w[j*rowW:][:rowW]
		v := vel[j*rowW:][:rowW]
		var b int
		if batch >= 4 {
			// The first block folds the momentum decay into its
			// traversal, sparing a separate pass over the velocity row.
			t0 := lr * d[j]
			t1 := lr * d[1*units+j]
			t2 := lr * d[2*units+j]
			t3 := lr * d[3*units+j]
			x0 := x[:inDim]
			x1 := x[1*ldx:][:inDim]
			x2 := x[2*ldx:][:inDim]
			x3 := x[3*ldx:][:inDim]
			for i := range x0 {
				v[i] = momentum*v[i] - (t0*x0[i] + t1*x1[i] + t2*x2[i] + t3*x3[i])
			}
			v[inDim] = momentum*v[inDim] - (t0 + t1 + t2 + t3)
			b = 4
		} else {
			for i, vv := range v {
				v[i] = momentum * vv
			}
		}
		for ; b+4 <= batch; b += 4 {
			t0 := lr * d[(b+0)*units+j]
			t1 := lr * d[(b+1)*units+j]
			t2 := lr * d[(b+2)*units+j]
			t3 := lr * d[(b+3)*units+j]
			x0 := x[(b+0)*ldx:][:inDim]
			x1 := x[(b+1)*ldx:][:inDim]
			x2 := x[(b+2)*ldx:][:inDim]
			x3 := x[(b+3)*ldx:][:inDim]
			for i := range x0 {
				v[i] -= t0*x0[i] + t1*x1[i] + t2*x2[i] + t3*x3[i]
			}
			v[inDim] -= t0 + t1 + t2 + t3
		}
		for ; b < batch; b++ {
			t := lr * d[b*units+j]
			xb := x[b*ldx:][:inDim]
			for i, xv := range xb {
				v[i] -= t * xv
			}
			v[inDim] -= t
		}
		for i, vv := range v {
			row[i] += vv
		}
	}
}
