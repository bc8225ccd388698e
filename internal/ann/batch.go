// Packed training corpus and the per-epoch driver of training: the
// mini-batch pass built on the kernels in gemm.go.
package ann

import (
	"errors"
	"fmt"
)

// dataSet is a packed, row-major training corpus: feature row i lives at
// x[i·d : (i+1)·d] with target y[i]. Packing happens once per training run;
// every fold, batch and validation view is then an index slice into the
// packed rows, so no per-fold sample copying survives on the training path.
type dataSet struct {
	x []float64
	y []float64
	d int
}

// n returns the number of rows.
func (ds *dataSet) n() int { return len(ds.y) }

// row returns feature row i.
func (ds *dataSet) row(i int) []float64 { return ds.x[i*ds.d : (i+1)*ds.d] }

// packWith packs samples into a dataSet of feature dimension d, filling
// each feature row through fillX and each target through mapY, and
// validating every sample's dimension (the caller fixes d from the
// training set so a validation set cannot silently disagree). It is the
// single point of truth for both the raw and the normalising packers.
func packWith(samples []Sample, d int, fillX func(dst, x []float64), mapY func(float64) float64) (*dataSet, error) {
	ds := &dataSet{
		x: make([]float64, len(samples)*d),
		y: make([]float64, len(samples)),
		d: d,
	}
	for i := range samples {
		if len(samples[i].X) != d {
			return nil, errors.New("ann: inconsistent feature dimensions")
		}
		fillX(ds.x[i*d:(i+1)*d], samples[i].X)
		ds.y[i] = mapY(samples[i].Y)
	}
	return ds, nil
}

// packSamples packs already-normalised samples verbatim.
func packSamples(samples []Sample, d int) (*dataSet, error) {
	return packWith(samples, d,
		func(dst, x []float64) { copy(dst, x) },
		func(y float64) float64 { return y })
}

// identityIdx returns [0, 1, …, n).
func identityIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// batchScratch is the working memory of the mini-batch pass: the gathered
// input rows plus batch-sized activation and delta matrices per layer. One
// scratch serves a whole training run.
type batchScratch struct {
	rows   int         // batch capacity
	x      []float64   // gathered inputs, rows×inDim
	acts   [][]float64 // acts[l]: rows×Sizes[l+1]
	deltas [][]float64 // deltas[l] matches acts[l]
}

// newBatchScratch sizes a scratch for the network topology and batch size.
func (n *Network) newBatchScratch(rows int) *batchScratch {
	bs := &batchScratch{
		rows:   rows,
		x:      make([]float64, rows*n.Sizes[0]),
		acts:   make([][]float64, len(n.Sizes)-1),
		deltas: make([][]float64, len(n.Sizes)-1),
	}
	for l := 1; l < len(n.Sizes); l++ {
		bs.acts[l-1] = make([]float64, rows*n.Sizes[l])
		bs.deltas[l-1] = make([]float64, rows*n.Sizes[l])
	}
	return bs
}

// epochBatched runs one epoch of mini-batch gradient descent: the shuffled
// order is split into consecutive chunks of up to batch rows (fixed shuffle
// → fixed batch partition, so training stays deterministic under a seed),
// and each chunk does one fused forward/backward/update pass. Gradients are
// summed (not averaged) over the chunk, so a batch of one reproduces the
// per-sample pass bit-for-bit; see gemm.go.
func (n *Network) epochBatched(ds *dataSet, order []int, batch int, lr, momentum float64, vel [][]float64, bs *batchScratch) float64 {
	var sum float64
	for start := 0; start < len(order); start += batch {
		end := start + batch
		if end > len(order) {
			end = len(order)
		}
		sum += n.batchStep(ds, order[start:end], lr, momentum, vel, bs)
	}
	return sum
}

// batchStep runs forward, backward and weight update for one mini-batch,
// returning the batch's summed squared error (computed before the update,
// as the per-sample path does).
func (n *Network) batchStep(ds *dataSet, batchIdx []int, lr, momentum float64, vel [][]float64, bs *batchScratch) float64 {
	m := len(batchIdx)
	d := ds.d
	for r, id := range batchIdx {
		copy(bs.x[r*d:(r+1)*d], ds.row(id))
	}

	// Forward through every layer; hidden layers apply the sigmoid.
	nl := len(n.w)
	in, ld := bs.x, d
	for l := 0; l < nl; l++ {
		units := n.Sizes[l+1]
		denseForward(bs.acts[l], in, n.w[l], m, n.Sizes[l], units, ld, l != nl-1)
		in, ld = bs.acts[l], units
	}

	// Output deltas (linear unit: delta = error) and squared error.
	out := bs.acts[nl-1]
	dOut := bs.deltas[nl-1]
	var sum float64
	for r, id := range batchIdx {
		e := out[r] - ds.y[id]
		dOut[r] = e
		sum += e * e
	}

	// Hidden deltas, output layer inward.
	for l := nl - 2; l >= 0; l-- {
		hiddenDelta(bs.deltas[l], bs.deltas[l+1], n.w[l+1], bs.acts[l], m, n.Sizes[l+1], n.Sizes[l+2])
	}

	// Fused momentum/AXPY update per layer.
	in, ld = bs.x, d
	for l := 0; l < nl; l++ {
		sgdStep(n.w[l], vel[l], bs.deltas[l], in, m, n.Sizes[l+1], n.Sizes[l], ld, lr, momentum)
		in, ld = bs.acts[l], n.Sizes[l+1]
	}
	return sum
}

// mseBatched returns the mean squared error over the listed rows using
// batched forward passes. Each sample's output is an independent dot-product
// chain and errors accumulate in row order, so the result is bit-identical
// to the per-sample MSE regardless of batch size.
func (n *Network) mseBatched(ds *dataSet, idx []int, bs *batchScratch) float64 {
	if len(idx) == 0 {
		return 0
	}
	d := ds.d
	nl := len(n.w)
	var sum float64
	for start := 0; start < len(idx); start += bs.rows {
		end := start + bs.rows
		if end > len(idx) {
			end = len(idx)
		}
		chunk := idx[start:end]
		m := len(chunk)
		for r, id := range chunk {
			copy(bs.x[r*d:(r+1)*d], ds.row(id))
		}
		in, ld := bs.x, d
		for l := 0; l < nl; l++ {
			units := n.Sizes[l+1]
			denseForward(bs.acts[l], in, n.w[l], m, n.Sizes[l], units, ld, l != nl-1)
			in, ld = bs.acts[l], units
		}
		out := bs.acts[nl-1]
		for r, id := range chunk {
			e := out[r] - ds.y[id]
			sum += e * e
		}
	}
	return sum / float64(len(idx))
}

// mseIdx returns the network's mean squared error over the listed rows of
// the packed dataset using the pooled per-sample scratch — the index-view
// counterpart of MSE, used for ensemble fold estimates.
func (n *Network) mseIdx(ds *dataSet, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	if ds.d != n.Sizes[0] {
		panic(fmt.Sprintf("ann: input dim %d, want %d", ds.d, n.Sizes[0]))
	}
	s := n.getScratch()
	var sum float64
	for _, id := range idx {
		e := n.forward(ds.row(id), s) - ds.y[id]
		sum += e * e
	}
	n.putScratch(s)
	return sum / float64(len(idx))
}
