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
// the flattened weights) and using s and deltas (same shape as s.acts) as
// working memory. It returns the squared error before the update.
func (n *Network) backprop(x []float64, y, lr, momentum float64, vel [][]float64, s *scratch, deltas [][]float64) float64 {
	out := n.forward(x, s)
	errOut := out - y

	// Deltas per layer (output layer is linear: delta = error).
	nl := len(n.w)
	deltas[nl-1][0] = errOut
	for l := nl - 2; l >= 0; l-- {
		d := deltas[l]
		next := deltas[l+1]
		nextRowW := n.rowWidth(l + 1)
		nextLayer := n.w[l+1]
		for j := range d {
			var sum float64
			for k, nd := range next {
				sum += nextLayer[k*nextRowW+j] * nd
			}
			a := s.acts[l][j]
			d[j] = sum * a * (1 - a) // sigmoid derivative
		}
	}

	// Weight update with momentum: v ← μv − η∂E/∂w; w ← w + v
	// (equation (1) of the paper plus the standard momentum term).
	in := x
	for l := range n.w {
		rowW := n.rowWidth(l)
		layer := n.w[l]
		vlayer := vel[l]
		for j, d := range deltas[l] {
			row := layer[j*rowW : (j+1)*rowW]
			v := vlayer[j*rowW : (j+1)*rowW]
			for i := range in {
				v[i] = momentum*v[i] - lr*d*in[i]
				row[i] += v[i]
			}
			bi := rowW - 1
			v[bi] = momentum*v[bi] - lr*d
			row[bi] += v[bi]
		}
		in = s.acts[l]
	}
	return errOut * errOut
}

// TestBatchedEpochMatchesPerSampleAtBatchOne is the correctness anchor of
// the batched trainer: with a batch of one, the fused GEMM pass must
// reproduce the per-sample stochastic pass bit-for-bit — identical squared
// errors and identical weights after every epoch.
func TestBatchedEpochMatchesPerSampleAtBatchOne(t *testing.T) {
	ds := packedSynth(t, 60, 31)
	rngA := rand.New(rand.NewSource(5))
	rngB := rand.New(rand.NewSource(5))
	netA, err := NewNetwork([]int{3, 16, 1}, rngA)
	if err != nil {
		t.Fatal(err)
	}
	netB, err := NewNetwork([]int{3, 16, 1}, rngB)
	if err != nil {
		t.Fatal(err)
	}
	velA, velB := netA.zeroLike(), netB.zeroLike()
	sc := netA.getScratch()
	deltas := [][]float64{make([]float64, 16), make([]float64, 1)}
	bs := netB.newBatchScratch(1)
	orderA := identityIdx(ds.n())
	orderB := identityIdx(ds.n())
	for epoch := 0; epoch < 10; epoch++ {
		rngA.Shuffle(len(orderA), func(i, j int) { orderA[i], orderA[j] = orderA[j], orderA[i] })
		rngB.Shuffle(len(orderB), func(i, j int) { orderB[i], orderB[j] = orderB[j], orderB[i] })
		var sumA float64
		for _, id := range orderA {
			sumA += netA.backprop(ds.row(id), ds.y[id], 0.05, 0.5, velA, sc, deltas)
		}
		sumB := netB.epochBatched(ds, orderB, 1, 0.05, 0.5, velB, bs)
		if math.Float64bits(sumA) != math.Float64bits(sumB) {
			t.Fatalf("epoch %d: squared-error sums differ: %v vs %v", epoch, sumA, sumB)
		}
		if !weightsEqual(netA, netB) {
			t.Fatalf("epoch %d: batched weights diverged from per-sample weights", epoch)
		}
	}
	netA.putScratch(sc)
}

// TestBatchedMSEMatchesPerSample asserts the batched validation pass is
// bit-identical to the per-sample MSE at any batch size: each sample's
// forward pass is an independent dot-product chain and errors accumulate
// in sample order.
func TestBatchedMSEMatchesPerSample(t *testing.T) {
	ds := packedSynth(t, 37, 8) // odd count exercises the tail chunk
	rng := rand.New(rand.NewSource(2))
	net, err := NewNetwork([]int{3, 16, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	idx := identityIdx(ds.n())
	want := net.mseIdx(ds, idx)
	for _, rows := range []int{1, 4, 16, 64} {
		bs := net.newBatchScratch(rows)
		if got := net.mseBatched(ds, idx, bs); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("batch rows %d: MSE %v, per-sample %v", rows, got, want)
		}
	}
}

// TestTrainBatchSizeZeroAndOneEquivalent asserts the dispatch: BatchSize 0
// and 1 are the same sequential-equivalent configuration.
func TestTrainBatchSizeZeroAndOneEquivalent(t *testing.T) {
	samples := synthSamples(80, 17, 0.02)
	scaler, _ := FitScaler(samples)
	norm := scaler.Apply(samples)
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
	norm := scaler.Apply(samples)
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
	if mse := net.MSE(valid); mse > varY/3 {
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
	norm := scaler.Apply(samples)
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
// must match the configured topology.
func TestTrainFromRejectsTopologyMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	init, _ := NewNetwork([]int{3, 8, 1}, rng)
	samples := synthSamples(30, 3, 0)
	cfg := DefaultConfig() // Hidden = [16], mismatching init's 8
	if _, _, err := TrainFrom(init, samples, nil, cfg); err == nil {
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
	norm := scaler.Apply(samples)
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
