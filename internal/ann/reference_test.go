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
// every layer (the first included) through the row-major batch kernels,
// each ensemble's members fanned out on their own.

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

// batchScratch is the reference's working memory: the gathered input rows
// plus batch-sized activation and delta matrices per layer.
type batchScratch struct {
	rows   int
	x      []float64   // gathered inputs, rows×inDim
	acts   [][]float64 // acts[l]: rows×Sizes[l+1]
	deltas [][]float64 // deltas[l] matches acts[l]
}

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
	d := ds.d
	for r, id := range batchIdx {
		copy(bs.x[r*d:(r+1)*d], ds.row(id))
	}
	nl := len(n.w)
	in, ld := bs.x, d
	for l := 0; l < nl; l++ {
		units := n.Sizes[l+1]
		denseForward(bs.acts[l], in, n.w[l], m, n.Sizes[l], units, ld, l != nl-1)
		in, ld = bs.acts[l], units
	}
	out := bs.acts[nl-1]
	dOut := bs.deltas[nl-1]
	var sum float64
	for r, id := range batchIdx {
		e := out[r] - y[id]
		dOut[r] = e
		sum += e * e
	}
	for l := nl - 2; l >= 0; l-- {
		hiddenDelta(bs.deltas[l], bs.deltas[l+1], n.w[l+1], bs.acts[l], m, n.Sizes[l+1], n.Sizes[l+2])
	}
	in, ld = bs.x, d
	for l := 0; l < nl; l++ {
		sgdStep(n.w[l], vel[l], bs.deltas[l], in, m, n.Sizes[l+1], n.Sizes[l], ld, lr, momentum)
		in, ld = bs.acts[l], n.Sizes[l+1]
	}
	return sum
}

// mseBatched returns the mean squared error over the listed rows using
// batched forward passes.
func (n *Network) mseBatched(ds *dataSet, y []float64, idx []int, bs *batchScratch) float64 {
	if len(idx) == 0 {
		return 0
	}
	d := ds.d
	nl := len(n.w)
	var sum float64
	for start := 0; start < len(idx); start += bs.rows {
		chunk := idx[start:min(start+bs.rows, len(idx))]
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
			e := out[r] - y[id]
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
	sizes := append([]int{ds.d}, cfg.Hidden...)
	sizes = append(sizes, 1)
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
	batch := max(cfg.BatchSize, 1)
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
		sum := net.epochBatched(ds, y, order, batch, cfg.LearningRate, cfg.Momentum, vel, bs)
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
	sizes := base.Nets[0].Sizes
	cfg.Hidden = append([]int(nil), sizes[1:len(sizes)-1]...)
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
