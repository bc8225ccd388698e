package ann

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/greenhpc/actor/internal/parallel"
)

// The row-major, one-target trainer the lockstep loop replaced, kept as the
// reference its bit-identity tests hold it to: each target trained alone,
// both layers row-major — the hidden layer's forward pass and δ and both
// layers' updates through the scalar loops below, the output unit's
// forward pass through the dispatched kernel — each ensemble's members
// fanned out on their own.

// hiddenForward computes the sigmoid hidden layer for a mini-batch:
//
//	out[b·units+j] = sigmoid( w[j·(inDim+1)+inDim] + Σ_i x[b·ldx+i] · w[j·(inDim+1)+i] )
//
// each sum bias first, then ascending i — Network.forward's order.
func hiddenForward(out, x, w []float64, batch, inDim, units, ldx int) {
	rowW := inDim + 1
	for b := 0; b < batch; b++ {
		xb := x[b*ldx:][:inDim]
		for j := 0; j < units; j++ {
			row := w[j*rowW:][:rowW]
			sum := row[inDim]
			for i, wv := range row[:inDim] {
				sum += wv * xb[i]
			}
			out[b*units+j] = sigmoid(sum)
		}
	}
}

// hiddenDelta runs the backprop recurrence for the hidden layer over a
// mini-batch: for every sample b and unit j,
//
//	d[b·units+j] = ( Σ_k wNext[k·(units+1)+j] · dNext[b·unitsNext+k] ) · a·(1−a)
//
// where a is the unit's forward activation. The k-sum runs in ascending
// order, matching the per-sample backward pass bit-for-bit.
func hiddenDelta(d, dNext, wNext, acts []float64, batch, units, unitsNext int) {
	rowW := units + 1
	for b := 0; b < batch; b++ {
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

// refSGDStep applies one summed-gradient step for a whole mini-batch to a
// row-major layer of units rows of (inDim+1) weights, the bias last,
// fusing the momentum update and the AXPY into one pass over each row:
//
//	v ← μ·v − η·Σ_b δ_b ⊗ [x_b, 1] ;  w ← w + v
//
// d holds the batch's deltas, units per sample. The momentum decay is
// folded first, then four samples are drained per velocity traversal with
// the per-sample term computed as (η·δ)·x. At batch == 1 this is exactly
// v[i] = μ·v[i] − (η·δ)·x[i], reproducing the per-sample update
// bit-for-bit.
func refSGDStep(w, vel, d, x []float64, batch, units, inDim, ldx int, lr, momentum float64) {
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

// copyWeightsFrom overwrites n's weights with src's (same topology).
func (n *Network) copyWeightsFrom(src *Network) {
	for l := range n.w {
		copy(n.w[l], src.w[l])
	}
}

// zeroLike allocates a weight-shaped flat buffer of zeros (momentum
// velocities).
func (n *Network) zeroLike() [][]float64 {
	vel := make([][]float64, len(n.w))
	for l := range n.w {
		vel[l] = make([]float64, len(n.w[l]))
	}
	return vel
}

// batchScratch is the reference's working memory: the gathered input rows,
// the hidden layer's batch activations and deltas, and the batch outputs.
type batchScratch struct {
	rows            int
	x               []float64 // gathered inputs, rows×inDim
	hidden, dHidden []float64 // rows×Hidden
	out             []float64 // rows outputs, overwritten by their errors
}

func (n *Network) newBatchScratch(rows int) *batchScratch {
	return &batchScratch{
		rows:    rows,
		x:       make([]float64, rows*n.Sizes[0]),
		hidden:  make([]float64, rows*Hidden),
		dHidden: make([]float64, rows*Hidden),
		out:     make([]float64, rows),
	}
}

// forwardBatch gathers the listed rows into bs.x and runs the network over
// them into bs.hidden and bs.out.
func (n *Network) forwardBatch(ds *dataSet, idx []int, bs *batchScratch) {
	d := ds.d
	for r, id := range idx {
		copy(bs.x[r*d:(r+1)*d], ds.row(id))
	}
	hiddenForward(bs.hidden, bs.x, n.w[0], len(idx), d, Hidden, d)
	denseForward(bs.out, bs.hidden, n.w[1], len(idx), Hidden)
}

// epochBatched runs one epoch over the shuffled order in consecutive chunks
// of up to batch rows and returns the summed squared error.
func (n *Network) epochBatched(ds *dataSet, y []float64, order []int, batch int, lr, momentum float64, vel [][]float64, bs *batchScratch) float64 {
	var sum float64
	for start := 0; start < len(order); start += batch {
		sum += n.batchStep(ds, y, order[start:min(start+batch, len(order))], lr, momentum, vel, bs)
	}
	return sum
}

// batchStep runs forward, backward and weight update for one mini-batch,
// returning the batch's summed squared error before the update.
func (n *Network) batchStep(ds *dataSet, y []float64, batchIdx []int, lr, momentum float64, vel [][]float64, bs *batchScratch) float64 {
	m := len(batchIdx)
	d, h := ds.d, Hidden
	n.forwardBatch(ds, batchIdx, bs)
	var sum float64
	for r, id := range batchIdx {
		e := bs.out[r] - y[id] // the linear output unit's delta
		bs.out[r] = e
		sum += e * e
	}
	hiddenDelta(bs.dHidden, bs.out, n.w[1], bs.hidden, m, h, 1)
	refSGDStep(n.w[0], vel[0], bs.dHidden, bs.x, m, h, d, d, lr, momentum)
	refSGDStep(n.w[1], vel[1], bs.out, bs.hidden, m, 1, h, h, lr, momentum)
	return sum
}

// mseBatched returns the mean squared error over the listed rows using
// batched forward passes.
func (n *Network) mseBatched(ds *dataSet, y []float64, idx []int, bs *batchScratch) float64 {
	if len(idx) == 0 {
		return 0
	}
	var sum float64
	for start := 0; start < len(idx); start += bs.rows {
		chunk := idx[start:min(start+bs.rows, len(idx))]
		n.forwardBatch(ds, chunk, bs)
		for r, id := range chunk {
			e := bs.out[r] - y[id]
			sum += e * e
		}
	}
	return sum / float64(len(idx))
}

// refTrainCore fits one network to labels y over the trainIdx rows of ds,
// early-stopping on labels vy over the validIdx rows of vds.
func refTrainCore(ds *dataSet, y []float64, trainIdx []int, vds *dataSet, vy []float64, validIdx []int, init *Network, cfg Config) (*Network, TrainResult, error) {
	if len(trainIdx) == 0 {
		return nil, TrainResult{}, errors.New("ann: empty training set")
	}
	sizes := []int{ds.d, Hidden, 1}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var net *Network
	if init != nil {
		if fmt.Sprint(init.Sizes) != fmt.Sprint(sizes) {
			return nil, TrainResult{}, fmt.Errorf("ann: warm-start topology %v, want %v", init.Sizes, sizes)
		}
		net = init.Clone()
	} else {
		var err error
		if net, err = NewNetwork(sizes, rng); err != nil {
			return nil, TrainResult{}, err
		}
	}
	batch := cfg.batchRows()
	vel := net.zeroLike()
	order := append([]int(nil), trainIdx...)
	bs := net.newBatchScratch(max(batch, 16))
	var best *Network
	bestValid := math.Inf(1)
	bad := 0
	res := TrainResult{}
	if len(validIdx) > 0 {
		best = net.Clone()
	}
	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		sum := net.epochBatched(ds, y, order, batch, learningRate, momentum, vel, bs)
		res.Epochs = epoch + 1
		res.TrainMSE = sum / float64(len(order))
		if len(validIdx) == 0 {
			continue
		}
		v := net.mseBatched(vds, vy, validIdx, bs)
		if v < bestValid-1e-12 {
			bestValid = v
			best.copyWeightsFrom(net)
			bad = 0
		} else if bad++; bad >= cfg.Patience {
			res.Stopped = true
			break
		}
	}
	if len(validIdx) > 0 {
		net = best
		res.ValidMSE = bestValid
	} else {
		res.ValidMSE = res.TrainMSE
	}
	return net, res, nil
}

// refFolds trains the fold members of one target, each on its own.
func refFolds(ds *dataSet, k int, cfg Config, init func(member int) *Network) ([]*Network, float64, error) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	foldIdx := make([][]int, k)
	for i, id := range rng.Perm(ds.n()) {
		foldIdx[i%k] = append(foldIdx[i%k], id)
	}
	y := ds.y[0]
	var base *Network
	mcfg := cfg
	if init == nil && cfg.WarmStartEpochs > 0 {
		var trainIdx []int
		for f := 1; f < k; f++ {
			trainIdx = append(trainIdx, foldIdx[f]...)
		}
		bcfg := cfg
		bcfg.Seed = cfg.Seed ^ 0x7a57
		var err error
		if base, _, err = refTrainCore(ds, y, trainIdx, ds, y, foldIdx[0], nil, bcfg); err != nil {
			return nil, 0, err
		}
		init = func(int) *Network { return base }
	}
	if cfg.WarmStartEpochs > 0 {
		mcfg.MaxEpochs = cfg.WarmStartEpochs
		mcfg.Patience = (cfg.Patience + 1) / 2
	}
	nets := make([]*Network, k)
	estimates := make([]float64, k)
	errs := make([]error, k)
	parallel.ForEach(k, func(member int) {
		stopFold, estFold := member, (member+1)%k
		var trainIdx []int
		for f := range foldIdx {
			if f != stopFold && f != estFold {
				trainIdx = append(trainIdx, foldIdx[f]...)
			}
		}
		c := mcfg
		c.Seed = cfg.Seed + int64(member)*7919
		var start *Network
		if init != nil {
			start = init(member)
		}
		net, _, err := refTrainCore(ds, y, trainIdx, ds, y, foldIdx[stopFold], start, c)
		if err != nil {
			errs[member] = err
			return
		}
		nets[member] = net
		estimates[member] = net.mseIdx(ds, y, foldIdx[estFold])
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, 0, err
	}
	var sum float64
	for _, e := range estimates {
		sum += e
	}
	return nets, sum / float64(k), nil
}

// refTrainEnsemble is TrainEnsemble on the reference trainer.
func refTrainEnsemble(samples []Sample, k int, cfg Config) (*Ensemble, error) {
	scaler, err := FitScaler(samples)
	if err != nil {
		return nil, err
	}
	ds, err := scaler.pack(samples)
	if err != nil {
		return nil, err
	}
	nets, est, err := refFolds(ds, k, cfg, nil)
	if err != nil {
		return nil, err
	}
	return NewEnsemble(nets, scaler, est)
}

// refFineTuneEnsemble is FineTuneEnsemble on the reference trainer.
func refFineTuneEnsemble(base *Ensemble, samples []Sample, cfg Config) (*Ensemble, error) {
	ds, err := base.Scaler.pack(samples)
	if err != nil {
		return nil, err
	}
	nets, est, err := refFolds(ds, len(base.Nets), cfg, func(m int) *Network { return base.Nets[m] })
	if err != nil {
		return nil, err
	}
	return NewEnsemble(nets, base.Scaler, est)
}

// row returns the features of row i (without the leading 1).
func (ds *dataSet) row(i int) []float64 { return ds.input(i)[1:] }

// forward runs the network on input x (length Sizes[0]), leaving the hidden
// activations in hidden (length Sizes[1]) and returning the output.
func (n *Network) forward(x, hidden []float64) float64 {
	d := n.Sizes[0]
	for j := range hidden {
		row := n.layerRow(0, j)
		sum := row[d] // bias
		for i, v := range x {
			sum += float64(row[i] * v)
		}
		hidden[j] = sigmoid(sum)
	}
	out := n.w[1]
	sum := out[len(hidden)] // bias; the output unit is linear
	for j, a := range hidden {
		sum += float64(out[j] * a)
	}
	return sum
}

// mseIdx returns the network's mean squared error against labels y over
// the listed rows of the packed corpus, one per-sample forward pass each:
// the reference the lockstep validation pass, which scores the ensemble's
// fold estimates, is pinned to.
func (n *Network) mseIdx(ds *dataSet, y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	if ds.d != n.Sizes[0] {
		panic(fmt.Sprintf("ann: input dim %d, want %d", ds.d, n.Sizes[0]))
	}
	hidden := make([]float64, n.Sizes[1])
	var sum float64
	for _, id := range idx {
		e := n.forward(ds.row(id), hidden) - y[id]
		sum += float64(e * e)
	}
	return sum / float64(len(idx))
}
