package ann

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// memberMean is the reference the stacked pass is held to: the ensemble's
// prediction computed one member at a time through Network.forward.
func memberMean(e *Ensemble, x []float64) float64 {
	nx := e.Scaler.XInto(nil, x)
	var sum float64
	for _, n := range e.Nets {
		sum += n.forward(nx, make([]float64, n.Sizes[1]))
	}
	return e.Scaler.InvY(sum / float64(len(e.Nets)))
}

// randomEnsemble builds k random-weight members of the given layer sizes
// under a random scaler. scale stretches the weights: at 1 the hidden units
// sit in their linear region, at 1e3 they saturate.
func randomEnsemble(t testing.TB, rng *rand.Rand, k int, sizes []int, scale float64) *Ensemble {
	t.Helper()
	nets := make([]*Network, k)
	for m := range nets {
		n, err := NewNetwork(sizes, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, layer := range n.w {
			for i := range layer {
				layer[i] *= scale
			}
		}
		nets[m] = n
	}
	sc := &Scaler{Mean: make([]float64, sizes[0]), Std: make([]float64, sizes[0]), YMin: -rng.Float64(), YMax: 1 + rng.Float64()}
	for i := range sc.Mean {
		sc.Mean[i] = rng.NormFloat64()
		sc.Std[i] = 0.1 + rng.Float64()
	}
	e, err := NewEnsemble(nets, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// stackInputs mixes ordinary feature vectors with the corners: signed
// zeros, magnitudes at both ends of the exponent range, and values that
// drive pre-activations past fastExp's ±709 clamp or overflow them into
// ±Inf and NaN.
func stackInputs(rng *rand.Rand, d, n int) [][]float64 {
	corner := []float64{0, math.Copysign(0, -1), 1e300, -1e300, 1e-300, -1e-300, 800, -800, 1e6, -1e6,
		math.MaxFloat64, -math.MaxFloat64}
	out := make([][]float64, n)
	for r := range out {
		x := make([]float64, d)
		for i := range x {
			switch {
			case r < len(corner):
				x[i] = corner[r]
			case r%3 == 0:
				x[i] = corner[rng.Intn(len(corner))]
			default:
				x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		out[r] = x
	}
	return out
}

func requireStackMatchesMembers(t *testing.T, e *Ensemble, inputs [][]float64, label string) {
	t.Helper()
	for _, x := range inputs {
		got, want := e.Predict(x), memberMean(e, x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Predict(%v) = %x, members give %x", label, x,
				math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestStackedEnsembleBitIdenticalToMembers holds the stacked pass to the
// members' own forward passes, bit for bit, under whichever kernel this leg
// bound.
func TestStackedEnsembleBitIdenticalToMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, k := range []int{3, 5, 7, 10} {
		for _, h := range []int{1, 3, 4, 16, 17} {
			for _, d := range []int{1, 3, 13} {
				for _, scale := range []float64{1, 1e3} {
					e := randomEnsemble(t, rng, k, []int{d, h, 1}, scale)
					requireStackMatchesMembers(t, e, stackInputs(rng, d, 40), "random")
				}
			}
		}
	}

	set := synthSamples(240, 5, 0.01)
	for _, k := range []int{3, 5} {
		e, err := TrainEnsemble(set, k, Config{Hidden: 16, MaxEpochs: 30, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		requireStackMatchesMembers(t, e, stackInputs(rng, len(set[0].X), 120), "trained")
	}
}

// TestStackedEnsembleConcurrentPredict shares one ensemble between eight
// goroutines; each must read the sequential answers (run under -race).
func TestStackedEnsembleConcurrentPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e := randomEnsemble(t, rng, 5, []int{13, 16, 1}, 1)
	inputs := stackInputs(rng, 13, 64)
	want := make([]float64, len(inputs))
	for i, x := range inputs {
		want[i] = e.Predict(x)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				i := (g*7 + r) % len(inputs)
				if got := e.Predict(inputs[i]); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("goroutine %d: Predict(input %d) = %v, sequential %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNewEnsembleRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := NewNetwork([]int{2, 3, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	nets := []*Network{net}
	narrow, err := NewNetwork([]int{2, 2, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// NewNetwork refuses these shapes; Sizes is exported, so NewEnsemble
	// checks them again.
	deep := &Network{Sizes: []int{2, 3, 3, 1}, w: [][]float64{make([]float64, 9), make([]float64, 12), make([]float64, 4)}}
	wide := &Network{Sizes: []int{2, 3, 2}, w: [][]float64{make([]float64, 9), make([]float64, 8)}}
	ok := func() *Scaler { return &Scaler{Mean: []float64{0, 0}, Std: []float64{1, 1}, YMax: 1} }
	cases := map[string]func() ([]*Network, *Scaler){
		"no members":     func() ([]*Network, *Scaler) { return nil, ok() },
		"nil member":     func() ([]*Network, *Scaler) { return []*Network{nil}, ok() },
		"deep member":    func() ([]*Network, *Scaler) { return []*Network{net, deep}, ok() },
		"wide output":    func() ([]*Network, *Scaler) { return []*Network{wide}, ok() },
		"mixed widths":   func() ([]*Network, *Scaler) { return []*Network{net, narrow}, ok() },
		"no scaler":      func() ([]*Network, *Scaler) { return nets, nil },
		"mean/std":       func() ([]*Network, *Scaler) { s := ok(); s.Std = s.Std[:1]; return nets, s },
		"input dim":      func() ([]*Network, *Scaler) { s := ok(); s.Mean, s.Std = s.Mean[:1], s.Std[:1]; return nets, s },
		"zero std":       func() ([]*Network, *Scaler) { s := ok(); s.Std[1] = 0; return nets, s },
		"negative std":   func() ([]*Network, *Scaler) { s := ok(); s.Std[0] = -1; return nets, s },
		"NaN std":        func() ([]*Network, *Scaler) { s := ok(); s.Std[0] = math.NaN(); return nets, s },
		"inverted range": func() ([]*Network, *Scaler) { s := ok(); s.YMin = 2; return nets, s },
	}
	for name, build := range cases {
		n, sc := build()
		if _, err := NewEnsemble(n, sc, 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewEnsemble(nets, ok(), 0); err != nil {
		t.Errorf("valid ensemble rejected: %v", err)
	}
}
