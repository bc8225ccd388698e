package ann

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// synthSamples generates samples of a smooth nonlinear target over 3
// features.
func synthSamples(n int, seed int64, noise float64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		y := math.Sin(2*x[0]) + 0.5*x[1]*x[2] + 0.3*x[2]
		y += noise * rng.NormFloat64()
		out[i] = Sample{X: x, Y: y}
	}
	return out
}

func TestNewNetworkShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, err := NewNetwork([]int{3, Hidden, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if n.InputDim() != 3 {
		t.Errorf("InputDim = %d", n.InputDim())
	}
	if len(n.w) != 2 || len(n.w[0]) != Hidden*4 || len(n.w[1]) != Hidden+1 {
		t.Errorf("weights %v, want a %d×4 hidden layer and a 1×%d output unit (incl. bias)", n.w, Hidden, Hidden+1)
	}
	for _, sizes := range [][]int{{3}, {3, 1}, {3, 0, 1}, {0, Hidden, 1}, {3, 5, 1}, {3, Hidden + 1, 1}, {3, 4, 4, 1}, {3, Hidden, 2}} {
		if _, err := NewNetwork(sizes, rng); err == nil {
			t.Errorf("network %v accepted", sizes)
		}
	}
}

func TestPredictDeterministic(t *testing.T) {
	e := randomEnsemble(t, rand.New(rand.NewSource(1)), 3, 2, 1)
	x := []float64{0.3, -0.7}
	if e.Predict(x) != e.Predict(x) {
		t.Error("Predict not deterministic")
	}
}

func TestPredictPanicsOnDimMismatch(t *testing.T) {
	e := randomEnsemble(t, rand.New(rand.NewSource(1)), 3, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong input dimension")
		}
	}()
	e.Predict([]float64{1})
}

func TestTrainLearnsNonlinearFunction(t *testing.T) {
	samples := synthSamples(400, 7, 0)
	scaler, err := FitScaler(samples)
	if err != nil {
		t.Fatal(err)
	}
	norm := normalise(scaler, samples)
	train, valid := norm[:320], norm[320:]
	cfg := DefaultConfig()
	cfg.MaxEpochs = 300
	net, res, err := Train(train, valid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Error("no epochs run")
	}
	// A trained net must clearly beat predicting the mean (MSE of the
	// normalised target vs its mean ≈ variance).
	var mean float64
	for _, s := range valid {
		mean += s.Y
	}
	mean /= float64(len(valid))
	var varY float64
	for _, s := range valid {
		d := s.Y - mean
		varY += d * d
	}
	varY /= float64(len(valid))
	if mse := setMSE(t, net, valid); mse > varY/3 {
		t.Errorf("validation MSE %.5f not well below target variance %.5f", mse, varY)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, _, err := Train(nil, nil, DefaultConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	bad := []Sample{{X: []float64{1}, Y: 0}, {X: []float64{1, 2}, Y: 0}}
	if _, _, err := Train(bad, nil, DefaultConfig()); err == nil {
		t.Error("inconsistent dimensions accepted")
	}
}

func TestEarlyStoppingFires(t *testing.T) {
	// Pure-noise target: validation error cannot improve for long, so
	// early stopping must halt before MaxEpochs.
	samples := synthSamples(200, 3, 0)
	for i := range samples {
		samples[i].Y = float64(i%7) * 0.1 // decorrelate target from X
	}
	scaler, _ := FitScaler(samples)
	norm := normalise(scaler, samples)
	cfg := DefaultConfig()
	cfg.MaxEpochs = 2000
	cfg.Patience = 10
	_, res, err := Train(norm[:150], norm[150:], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("early stopping never fired on unlearnable data")
	}
	if res.Epochs >= 2000 {
		t.Error("training ran to MaxEpochs despite patience")
	}
}

func TestTrainDeterministicUnderSeed(t *testing.T) {
	samples := synthSamples(100, 5, 0.05)
	scaler, _ := FitScaler(samples)
	norm := normalise(scaler, samples)
	cfg := DefaultConfig()
	cfg.MaxEpochs = 50
	a, _, err := Train(norm[:80], norm[80:], cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := Train(norm[:80], norm[80:], cfg)
	if !weightsEqual(a, b) {
		t.Error("training not deterministic under equal seeds")
	}
}

func TestScalerRoundTrip(t *testing.T) {
	samples := synthSamples(50, 11, 0)
	sc, err := FitScaler(samples)
	if err != nil {
		t.Fatal(err)
	}
	f := func(y float64) bool {
		y = math.Mod(y, 100)
		return math.Abs(sc.InvY(sc.Y(y))-y) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScalerStandardisation(t *testing.T) {
	samples := []Sample{
		{X: []float64{1, 10}, Y: 1},
		{X: []float64{3, 10}, Y: 2},
		{X: []float64{5, 10}, Y: 3},
	}
	sc, _ := FitScaler(samples)
	x := sc.XInto(nil, []float64{3, 10})
	if math.Abs(x[0]) > 1e-9 {
		t.Errorf("mean-centred feature = %g, want 0", x[0])
	}
	// Constant feature passes through as zero without dividing by zero.
	if x[1] != 0 || math.IsNaN(x[1]) {
		t.Errorf("constant feature = %g, want 0", x[1])
	}
}

func TestEnsembleBeatsGuessingAndRoundTrips(t *testing.T) {
	samples := synthSamples(300, 13, 0.05)
	cfg := DefaultConfig()
	cfg.MaxEpochs = 150
	ens, err := TrainEnsemble(samples, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Nets) != 5 {
		t.Fatalf("ensemble has %d members, want 5", len(ens.Nets))
	}
	// Held-out accuracy: evaluate on fresh samples from the same process.
	test := synthSamples(100, 999, 0)
	var mse, varY, mean float64
	for _, s := range test {
		mean += s.Y
	}
	mean /= float64(len(test))
	for _, s := range test {
		d := ens.Predict(s.X) - s.Y
		mse += d * d
		dv := s.Y - mean
		varY += dv * dv
	}
	mse /= float64(len(test))
	varY /= float64(len(test))
	if mse > varY/2 {
		t.Errorf("ensemble MSE %.4f not well below variance %.4f", mse, varY)
	}
	if ens.EstimateMSE <= 0 {
		t.Error("ensemble estimate MSE not populated")
	}
}

func TestEnsembleErrors(t *testing.T) {
	samples := synthSamples(10, 1, 0)
	if _, err := TrainEnsemble(samples, 2, DefaultConfig()); err == nil {
		t.Error("k=2 accepted (needs train/stop/estimate)")
	}
	if _, err := TrainEnsemble(samples[:2], 5, DefaultConfig()); err == nil {
		t.Error("fewer samples than folds accepted")
	}
}

// TestNonFiniteTrainingDataRejected asserts a NaN or infinite feature or
// label is refused before any epoch runs, naming the sample and the
// feature — not trained into NaN weights, a NaN EstimateMSE or a misleading
// scaler error.
func TestNonFiniteTrainingDataRejected(t *testing.T) {
	poison := func(i int, f func(*Sample)) []Sample {
		s := synthSamples(40, 3, 0.02)
		s[i].X = append([]float64(nil), s[i].X...)
		f(&s[i])
		return s
	}
	cfg := DefaultConfig()
	cfg.MaxEpochs = 5
	base, err := TrainEnsemble(synthSamples(40, 4, 0.02), 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		samples []Sample
		want    string
	}{
		{"NaN label", poison(7, func(s *Sample) { s.Y = math.NaN() }), "sample 7 target is NaN"},
		{"+Inf feature", poison(0, func(s *Sample) { s.X[0] = math.Inf(1) }), "sample 0 feature 0 is +Inf"},
		{"-Inf label", poison(39, func(s *Sample) { s.Y = math.Inf(-1) }), "sample 39 target is -Inf"},
		{"NaN feature", poison(12, func(s *Sample) { s.X[2] = math.NaN() }), "sample 12 feature 2 is NaN"},
	} {
		for _, run := range []struct {
			entry string
			fn    func() error
		}{
			{"FitScaler", func() error { _, err := FitScaler(c.samples); return err }},
			{"Train", func() error { _, _, err := Train(c.samples, nil, cfg); return err }},
			{"TrainEnsemble", func() error { _, err := TrainEnsemble(c.samples, 4, cfg); return err }},
			{"FineTuneEnsemble", func() error { _, err := FineTuneEnsemble(base, c.samples, cfg); return err }},
		} {
			err := run.fn()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s with a %s: error %v, want one naming %q", run.entry, c.name, err, c.want)
			}
		}
	}
	// A validation set is checked too.
	if _, _, err := Train(synthSamples(20, 5, 0), poison(3, func(s *Sample) { s.Y = math.NaN() }), cfg); err == nil {
		t.Error("NaN validation label accepted")
	}
}

func TestEnsembleDeterministic(t *testing.T) {
	samples := synthSamples(120, 21, 0.02)
	cfg := DefaultConfig()
	cfg.MaxEpochs = 60
	a, err := TrainEnsemble(samples, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := TrainEnsemble(samples, 4, cfg)
	x := []float64{0.5, 0.5, -0.5}
	if a.Predict(x) != b.Predict(x) {
		t.Error("ensemble training not deterministic (parallel fold training must not race)")
	}
}
