package ann

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// trainCore is the one training loop. It fits len(tr.y) [d, Hidden, 1]
// networks in lockstep — one per target of the packed corpus tr — to the
// trainIdx rows, early-stopping each on its labels over the validIdx rows
// of vd (vd may alias tr: fold views are index slices into one corpus).
// With inits nil every target starts from the same random initialisation
// drawn under cfg.Seed; otherwise target t fine-tunes a copy of inits[t].
//
// The targets share everything but their labels and weights: the input
// rows, the initialisation stream, and the per-epoch shuffle, hence every
// mini-batch. So each target's network and TrainResult are bit-identical to
// training it alone — what trainCore does when there is one target. The
// hidden layer of all targets is one feature-major matrix whose vector
// lanes are (target, hidden unit) pairs (see lockstep); each target's
// output unit runs through the row-major kernels.
func trainCore(tr *dataSet, trainIdx []int, vd *dataSet, validIdx []int, inits []*Network, cfg Config) ([]*Network, []TrainResult, error) {
	if len(trainIdx) == 0 {
		return nil, nil, errors.New("ann: empty training set")
	}
	sizes := []int{tr.d, Hidden, 1}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nets := make([]*Network, len(tr.y))
	if inits != nil {
		for t, init := range inits {
			if !slices.Equal(init.Sizes, sizes) {
				return nil, nil, fmt.Errorf("ann: warm-start topology %v, want %v", init.Sizes, sizes)
			}
			nets[t] = init.Clone()
		}
	} else {
		net, err := NewNetwork(sizes, rng)
		if err != nil {
			return nil, nil, err
		}
		nets[0] = net
		for t := 1; t < len(nets); t++ {
			nets[t] = net.Clone()
		}
	}

	// All working memory for the whole run is allocated here and reused
	// across every epoch and batch. The shuffled order holds corpus row
	// ids directly. Validation forward passes batch at least validRows rows.
	batch := max(cfg.BatchSize, 1)
	ls := newLockstep(nets, max(batch, validRows))
	validate := len(validIdx) > 0
	for t, tg := range ls.live {
		tg.y = tr.y[t]
		if validate {
			// Early stopping needs a snapshot of the best weights seen;
			// without a validation set none is ever consulted.
			tg.vy = vd.y[t]
			tg.best = nets[t].Clone()
			tg.bestValid = math.Inf(1)
		}
	}
	all := slices.Clone(ls.live)
	order := slices.Clone(trainIdx)

	for epoch := 0; epoch < cfg.MaxEpochs && len(ls.live) > 0; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		ls.epoch(tr, order, batch)
		for _, tg := range ls.live {
			tg.res.Epochs = epoch + 1
			tg.res.TrainMSE = tg.sum / float64(len(order))
		}
		if !validate {
			continue
		}
		ls.validate(vd, validIdx)
		for s, tg := range ls.live {
			if tg.valid < tg.bestValid-1e-12 {
				tg.bestValid = tg.valid
				ls.snapshot(s, tg.best)
				tg.bad = 0
			} else if tg.bad++; tg.bad >= cfg.Patience {
				tg.res.Stopped = true
			}
		}
		ls.retire()
	}

	out := make([]*Network, len(all))
	res := make([]TrainResult, len(all))
	for t, tg := range all {
		if validate {
			out[t] = tg.best
			tg.res.ValidMSE = tg.bestValid
		} else {
			ls.snapshot(t, tg.net) // nobody retires without validation
			out[t] = tg.net
			tg.res.ValidMSE = tg.res.TrainMSE
		}
		res[t] = tg.res
	}
	return out, res, nil
}

// lockstep is the working state of trainCore: the live targets' hidden
// layers packed feature-major — row 0 the biases, row i+1 every lane's
// weight for feature i — with lane s·Hidden+j holding hidden unit j of
// live target s, plus the batch scratch of that layer. A target whose early
// stop fires is compacted out of the lanes (retire), so stopped targets
// cost nothing.
//
// Per weight, nothing reduces across lanes: the forward pass accumulates
// each lane bias first then by ascending feature (stackForward, the
// ensemble's inference kernel), and the update gives each element sgdStep's
// sequence (sgdFeatureMajor) — the bits of the row-major layer it stands
// for.
type lockstep struct {
	// d is the feature count.
	d int
	// rows is the scratch capacity in samples.
	rows int
	// w0 and v0 are the hidden layer's weights and velocities, (d+1) rows
	// of lanes() columns.
	w0, v0 []float64
	// x holds a batch's gathered input rows, 1 first (the bias input).
	x []float64
	// acts0 and eta0 hold one row of lanes() per sample: the hidden
	// layer's activations, and its η·δ.
	acts0, eta0 []float64
	live        []*target
}

// target is one network of a lockstep run: its output unit and that unit's
// batch scratch, its labels and its early-stopping state.
type target struct {
	// net holds the current output-unit weights (w[1]); its hidden layer
	// is only written by snapshot.
	net *Network
	// vel is the output unit's velocity. out holds the batch's outputs,
	// which step overwrites with their errors: the output deltas, the
	// unit being linear.
	vel, out   []float64
	y, vy      []float64 // training and validation labels
	sum, valid float64   // the epoch's summed squared error, the last validation MSE
	best       *Network
	bestValid  float64
	bad        int
	res        TrainResult
}

// validRows is the least number of rows one validation forward pass
// batches, whatever the training batch size.
const validRows = 16

// newLockstep packs nets (one [d, Hidden, 1] shape) into lanes, with batch
// scratch for rows samples.
func newLockstep(nets []*Network, rows int) *lockstep {
	d := nets[0].Sizes[0]
	lanes := len(nets) * Hidden
	ls := &lockstep{
		d:     d,
		rows:  rows,
		w0:    make([]float64, (d+1)*lanes),
		v0:    make([]float64, (d+1)*lanes),
		x:     make([]float64, rows*(d+1)),
		acts0: make([]float64, rows*lanes),
		eta0:  make([]float64, rows*lanes),
	}
	for s, n := range nets {
		for j := 0; j < Hidden; j++ {
			row := n.layerRow(0, j)
			u := s*Hidden + j
			ls.w0[u] = row[d]
			for i, w := range row[:d] {
				ls.w0[(i+1)*lanes+u] = w
			}
		}
		ls.live = append(ls.live, &target{net: n, vel: make([]float64, len(n.w[1])), out: make([]float64, rows)})
	}
	return ls
}

// lanes returns the live lane count.
func (ls *lockstep) lanes() int { return len(ls.live) * Hidden }

// epoch runs one epoch of mini-batch gradient descent for every live
// target, leaving each target's summed squared error in sum: the shuffled
// order is split into consecutive chunks of up to batch rows (fixed shuffle
// → fixed batch partition, so training stays deterministic under a seed).
// Gradients are summed (not averaged) over a chunk, so a batch of one
// reproduces per-sample backprop bit-for-bit.
func (ls *lockstep) epoch(ds *dataSet, order []int, batch int) {
	for _, tg := range ls.live {
		tg.sum = 0
	}
	for start := 0; start < len(order); start += batch {
		ls.step(ds, order[start:min(start+batch, len(order))])
	}
}

// forward0 gathers the listed rows' inputs into x and computes the hidden
// layer's activations of every live lane.
func (ls *lockstep) forward0(ds *dataSet, idx []int) {
	d1 := ds.d + 1
	lanes := ls.lanes()
	w0 := ls.w0[:d1*lanes]
	for r, id := range idx {
		xr := ls.x[r*d1 : (r+1)*d1]
		copy(xr, ds.input(id))
		stackForward(ls.acts0[r*lanes:(r+1)*lanes], w0, xr[1:])
	}
}

// forward runs target s's output unit over m rows of hidden activations
// into its out.
func (ls *lockstep) forward(s, m int) {
	tg := ls.live[s]
	denseForward(tg.out, ls.acts0[s*Hidden:], tg.net.w[1], m, ls.lanes())
}

// step runs forward, backward and weight update of one mini-batch for every
// live target, adding each target's summed squared error (computed before
// the update, as the per-sample path does) to its sum.
func (ls *lockstep) step(ds *dataSet, idx []int) {
	m := len(idx)
	lanes := ls.lanes()
	ls.forward0(ds, idx)
	for s, tg := range ls.live {
		ls.forward(s, m)

		// Output deltas (linear unit: delta = error) and squared error.
		var sum float64
		for r, id := range idx {
			e := tg.out[r] - tg.y[id]
			tg.out[r] = e
			sum += float64(e * e)
		}
		tg.sum += sum

		// The hidden deltas go straight into the lanes as η·δ; then the
		// fused momentum/AXPY update of the output unit.
		a0 := ls.acts0[s*Hidden:]
		hiddenEta(ls.eta0[s*Hidden:], tg.out, tg.net.w[1], a0, m, lanes, learningRate)
		sgdStep(tg.net.w[1], tg.vel, tg.out, a0, m, lanes, learningRate, momentum)
	}
	d1 := ds.d + 1
	sgdFeatureMajor(ls.w0[:d1*lanes], ls.v0[:d1*lanes], ls.eta0, ls.x, m, d1, lanes, d1, momentum)
}

// validate sets every live target's valid to its mean squared error over
// the listed rows. Each output is an independent dot-product chain and the
// errors accumulate in row order, so the result is the per-sample MSE's
// bits at any chunk size.
func (ls *lockstep) validate(ds *dataSet, idx []int) {
	for _, tg := range ls.live {
		tg.valid = 0
	}
	for start := 0; start < len(idx); start += ls.rows {
		chunk := idx[start:min(start+ls.rows, len(idx))]
		ls.forward0(ds, chunk)
		for s, tg := range ls.live {
			ls.forward(s, len(chunk))
			for r, id := range chunk {
				e := tg.out[r] - tg.vy[id]
				tg.valid += float64(e * e)
			}
		}
	}
	for _, tg := range ls.live {
		tg.valid /= float64(len(idx))
	}
}

// snapshot copies live target s's current weights into dst, a network of
// the same shape.
func (ls *lockstep) snapshot(s int, dst *Network) {
	lanes := ls.lanes()
	for j := 0; j < Hidden; j++ {
		u := s*Hidden + j
		row := dst.layerRow(0, j)
		row[ls.d] = ls.w0[u]
		for i := range row[:ls.d] {
			row[i] = ls.w0[(i+1)*lanes+u]
		}
	}
	copy(dst.w[1], ls.live[s].net.w[1])
}

// retire compacts the targets whose early stop fired out of the lanes.
// Rows shrink in place: every destination block starts at or before its
// source and after every source still to be read.
func (ls *lockstep) retire() {
	if !slices.ContainsFunc(ls.live, func(tg *target) bool { return tg.res.Stopped }) {
		return
	}
	var keep []*target
	var from []int
	for s, tg := range ls.live {
		if !tg.res.Stopped {
			keep = append(keep, tg)
			from = append(from, s)
		}
	}
	old, lanes := ls.lanes(), len(keep)*Hidden
	for i := 0; i <= ls.d; i++ {
		for n, s := range from {
			copy(ls.w0[i*lanes+n*Hidden:][:Hidden], ls.w0[i*old+s*Hidden:][:Hidden])
			copy(ls.v0[i*lanes+n*Hidden:][:Hidden], ls.v0[i*old+s*Hidden:][:Hidden])
		}
	}
	ls.live = keep
}
