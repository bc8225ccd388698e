package ann

import (
	"math"
	"math/rand"
	"testing"
)

// packedSynth packs synthetic normalised samples for direct epoch-driver
// tests.
func packedSynth(t *testing.T, n int, seed int64) *dataSet {
	t.Helper()
	samples := synthSamples(n, seed, 0.02)
	scaler, err := FitScaler(samples)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := scaler.pack(samples)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// weightsEqual reports bit-for-bit equality of two networks' weights.
func weightsEqual(a, b *Network) bool {
	for l := range a.w {
		for i, v := range a.w[l] {
			if math.Float64bits(v) != math.Float64bits(b.w[l][i]) {
				return false
			}
		}
	}
	return true
}

// backprop is classic per-sample stochastic backprop, the bit-identity
// reference of the batched trainer: one gradient step on sample (x, y) with
// the given learning rate, accumulating momentum into vel (same shape as
// the flattened weights) and using acts and deltas (hidden-width each) as
// working memory. It returns the squared error before the update.
func (n *Network) backprop(x []float64, y, lr, momentum float64, vel [][]float64, acts, deltas []float64) float64 {
	errOut := n.forward(x, acts) - y // the linear output unit's delta

	// Hidden deltas through the output weights, sigmoid derivative; each
	// sum starts from zero, as hiddenEta's does.
	for j := range deltas {
		var sum float64
		sum += n.w[1][j] * errOut
		a := acts[j]
		deltas[j] = sum * a * (1 - a)
	}

	// Weight update with momentum: v ← μv − η∂E/∂w; w ← w + v
	// (equation (1) of the paper plus the standard momentum term).
	for l, layer := range []struct{ in, d []float64 }{{x, deltas}, {acts, []float64{errOut}}} {
		rowW := n.rowWidth(l)
		for j, d := range layer.d {
			row := n.w[l][j*rowW : (j+1)*rowW]
			v := vel[l][j*rowW : (j+1)*rowW]
			for i := range layer.in {
				v[i] = momentum*v[i] - lr*d*layer.in[i]
				row[i] += v[i]
			}
			bi := rowW - 1
			v[bi] = momentum*v[bi] - lr*d
			row[bi] += v[bi]
		}
	}
	return errOut * errOut
}

// withTargets adds labels for more targets to a packed one-target corpus:
// the same rows, target t's label f_t(x, y₀).
func withTargets(ds *dataSet, fs ...func(x []float64, y float64) float64) {
	y0 := ds.y[0]
	for _, f := range fs {
		y := make([]float64, ds.n())
		for i := range y {
			y[i] = f(ds.row(i), y0[i])
		}
		ds.y = append(ds.y, y)
	}
}

// TestBatchedEpochMatchesPerSampleAtBatchOne is the correctness anchor of
// the trainer: with a batch of one, the lockstep pass must reproduce the
// per-sample stochastic pass of every target bit-for-bit — identical
// squared errors and identical weights after every epoch.
func TestBatchedEpochMatchesPerSampleAtBatchOne(t *testing.T) {
	ds := packedSynth(t, 60, 31)
	withTargets(ds,
		func(x []float64, _ float64) float64 { return 0.1 + 0.8*x[0]*x[0]/4 },
		func(_ []float64, y float64) float64 { return 1 - y })
	init, err := NewNetwork([]int{3, Hidden, 1}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	targets := len(ds.y)
	refs := make([]*Network, targets)
	lsNets := make([]*Network, targets)
	vels := make([][][]float64, targets)
	for i := range refs {
		refs[i], lsNets[i] = init.Clone(), init.Clone()
		vels[i] = refs[i].zeroLike()
	}
	ls := newLockstep(lsNets, 1)
	for i, tg := range ls.live {
		tg.y = ds.y[i]
	}
	acts, deltas := make([]float64, Hidden), make([]float64, Hidden)
	got := init.Clone()
	rng := rand.New(rand.NewSource(5))
	order := identityIdx(ds.n())
	for epoch := 0; epoch < 10; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		ls.epoch(ds, order, 1)
		for i, ref := range refs {
			var sum float64
			for _, id := range order {
				sum += ref.backprop(ds.row(id), ds.y[i][id], learningRate, momentum, vels[i], acts, deltas)
			}
			if math.Float64bits(sum) != math.Float64bits(ls.live[i].sum) {
				t.Fatalf("epoch %d target %d: squared-error sums differ: %v vs %v", epoch, i, sum, ls.live[i].sum)
			}
			ls.snapshot(i, got)
			if !weightsEqual(ref, got) {
				t.Fatalf("epoch %d target %d: lockstep weights diverged from per-sample weights", epoch, i)
			}
		}
	}
}

// TestBatchedMSEMatchesPerSample asserts the lockstep validation pass is
// bit-identical to every target's per-sample MSE at any chunk size: each
// sample's forward pass is an independent dot-product chain and errors
// accumulate in sample order.
func TestBatchedMSEMatchesPerSample(t *testing.T) {
	ds := packedSynth(t, 37, 8) // odd count exercises the tail chunk
	withTargets(ds, func(x []float64, y float64) float64 { return y * x[1] })
	rng := rand.New(rand.NewSource(2))
	nets := make([]*Network, len(ds.y))
	for i := range nets {
		var err error
		if nets[i], err = NewNetwork([]int{3, Hidden, 1}, rng); err != nil {
			t.Fatal(err)
		}
	}
	idx := identityIdx(ds.n())
	for _, rows := range []int{1, 4, 16, 64} {
		ls := newLockstep(nets, rows)
		for i, tg := range ls.live {
			tg.vy = ds.y[i]
		}
		ls.validate(ds, idx)
		for i, tg := range ls.live {
			if want := nets[i].mseIdx(ds, ds.y[i], idx); math.Float64bits(tg.valid) != math.Float64bits(want) {
				t.Errorf("chunk rows %d target %d: MSE %v, per-sample %v", rows, i, tg.valid, want)
			}
		}
	}
}

// TestTrainBatchSizeZeroAndOneEquivalent asserts the dispatch: BatchSize 0
// and 1 are the same sequential-equivalent configuration.
func TestTrainBatchSizeZeroAndOneEquivalent(t *testing.T) {
	samples := synthSamples(80, 17, 0.02)
	scaler, _ := FitScaler(samples)
	norm := normalise(scaler, samples)
	cfg := DefaultConfig()
	cfg.MaxEpochs = 30
	a, _, err := Train(norm[:60], norm[60:], cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BatchSize = 1
	b, _, err := Train(norm[:60], norm[60:], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !weightsEqual(a, b) {
		t.Error("BatchSize 0 and 1 trained different networks")
	}
}

// TestBatchedTrainingLearns asserts mini-batch training (B > 1) still fits
// the synthetic nonlinear target well below its variance.
func TestBatchedTrainingLearns(t *testing.T) {
	samples := synthSamples(400, 7, 0)
	scaler, _ := FitScaler(samples)
	norm := normalise(scaler, samples)
	train, valid := norm[:320], norm[320:]
	cfg := DefaultConfig()
	cfg.MaxEpochs = 300
	cfg.BatchSize = 8
	net, res, err := Train(train, valid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Error("no epochs run")
	}
	var mean, varY float64
	for _, s := range valid {
		mean += s.Y
	}
	mean /= float64(len(valid))
	for _, s := range valid {
		d := s.Y - mean
		varY += d * d
	}
	varY /= float64(len(valid))
	if mse := setMSE(t, net, valid); mse > varY/3 {
		t.Errorf("batched validation MSE %.5f not well below target variance %.5f", mse, varY)
	}
}

// TestWarmStartReachesColdStartValidMSE fine-tunes from a base model
// trained on the full dataset and asserts the result is no worse than
// cold-start training within tolerance, despite a fraction of the epochs —
// the property the warm-start ensemble mode rests on.
func TestWarmStartReachesColdStartValidMSE(t *testing.T) {
	samples := synthSamples(300, 23, 0.03)
	scaler, _ := FitScaler(samples)
	norm := normalise(scaler, samples)
	train, valid := norm[:240], norm[240:]
	cfg := DefaultConfig()
	cfg.MaxEpochs = 200
	cfg.BatchSize = 8

	_, cold, err := Train(train, valid, cfg)
	if err != nil {
		t.Fatal(err)
	}

	base, _, err := Train(norm, nil, cfg) // full dataset, no early stop
	if err != nil {
		t.Fatal(err)
	}
	ftCfg := cfg
	ftCfg.MaxEpochs = 40
	warmNet, warm, err := TrainFrom(base, train, valid, ftCfg)
	if err != nil {
		t.Fatal(err)
	}
	if warmNet == base {
		t.Fatal("TrainFrom returned the init network instead of a copy")
	}
	if warm.ValidMSE > cold.ValidMSE*1.5+1e-4 {
		t.Errorf("warm-start ValidMSE %.5f much worse than cold-start %.5f", warm.ValidMSE, cold.ValidMSE)
	}
}

// TestTrainFromRejectsTopologyMismatch asserts warm-start initial weights
// must match the samples' feature count.
func TestTrainFromRejectsTopologyMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	init, err := NewNetwork([]int{4, Hidden, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	samples := synthSamples(30, 3, 0) // three features, mismatching init's four
	if _, _, err := TrainFrom(init, samples, nil, DefaultConfig()); err == nil {
		t.Error("topology mismatch accepted")
	}
}

// TestTrainNoValidationSkipsSnapshot asserts Train no longer clones an
// early-stopping snapshot it will never consult when there is no
// validation set (the snapshot is only used to roll back to the best
// validation epoch).
func TestTrainNoValidationSkipsSnapshot(t *testing.T) {
	samples := synthSamples(40, 9, 0.02)
	scaler, _ := FitScaler(samples)
	norm := normalise(scaler, samples)
	cfg := DefaultConfig()
	cfg.MaxEpochs = 2

	withValid := testing.AllocsPerRun(5, func() {
		if _, _, err := Train(norm[:30], norm[30:], cfg); err != nil {
			t.Fatal(err)
		}
	})
	noValid := testing.AllocsPerRun(5, func() {
		if _, _, err := Train(norm[:30], nil, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Without a validation set Train must do strictly less allocation work:
	// no snapshot clone (and no validation scratch). The comparison is
	// relative so it holds under instrumentation (-race) too.
	if noValid >= withValid {
		t.Errorf("Train without validation allocates %.0f times, with validation %.0f — snapshot clone not skipped",
			noValid, withValid)
	}
}

// TestWarmStartEnsembleDeterministicAndSound asserts the warm-start
// ensemble mode trains deterministically and stays close to the cold-start
// ensemble's held-out-fold estimate.
func TestWarmStartEnsembleDeterministicAndSound(t *testing.T) {
	samples := synthSamples(300, 13, 0.05)
	cold := DefaultConfig()
	cold.MaxEpochs = 150
	coldEns, err := TrainEnsemble(samples, 5, cold)
	if err != nil {
		t.Fatal(err)
	}

	warm := cold
	warm.BatchSize = 8
	warm.WarmStartEpochs = 40
	a, err := TrainEnsemble(samples, 5, warm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainEnsemble(samples, 5, warm)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.2, -0.4, 0.6}
	if a.Predict(x) != b.Predict(x) {
		t.Error("warm-start ensemble training not deterministic")
	}
	if a.EstimateMSE <= 0 {
		t.Error("warm-start ensemble estimate not populated")
	}
	if a.EstimateMSE > coldEns.EstimateMSE*2+1e-4 {
		t.Errorf("warm-start estimate MSE %.5f much worse than cold-start %.5f",
			a.EstimateMSE, coldEns.EstimateMSE)
	}
}
