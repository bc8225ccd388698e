package ann

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// lockstepSets builds targets sample sets over n shared feature vectors of
// dimension d — the X slices themselves are shared, as ToSamplesMulti
// shares them — with a different label function and noise level per
// target, so early stopping fires at different epochs.
func lockstepSets(n, d, targets int, seed int64) [][]Sample {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, d)
		for f := range xs[i] {
			xs[i][f] = rng.Float64()*2 - 1
		}
	}
	sets := make([][]Sample, targets)
	for t := range sets {
		noise := 0.02 + 0.3*float64(t%3)
		sets[t] = make([]Sample, n)
		for i, x := range xs {
			y := math.Sin(float64(t+1)*x[0]) + 0.5*x[(t+1)%d]*x[d-1] + noise*rng.NormFloat64()
			sets[t][i] = Sample{X: x, Y: y}
		}
	}
	return sets
}

// requireSameEnsemble fails unless got and want have bit-identical members
// and EstimateMSE.
func requireSameEnsemble(t *testing.T, label string, got, want *Ensemble) {
	t.Helper()
	if math.Float64bits(got.EstimateMSE) != math.Float64bits(want.EstimateMSE) {
		t.Fatalf("%s: EstimateMSE %v, independent trainer %v", label, got.EstimateMSE, want.EstimateMSE)
	}
	if len(got.Nets) != len(want.Nets) {
		t.Fatalf("%s: %d members, want %d", label, len(got.Nets), len(want.Nets))
	}
	for m := range got.Nets {
		if !weightsEqual(got.Nets[m], want.Nets[m]) {
			t.Fatalf("%s: member %d weights differ from the independent trainer's", label, m)
		}
	}
}

// TestLockstepBitIdenticalToIndependentTrainers holds the lockstep trainer
// to the row-major reference (reference_test.go) training every target
// alone: weights and EstimateMSE compared by math.Float64bits, across
// target counts, hidden widths (with and without pad lanes), feature
// counts, batch sizes, cold start, warm start and fine-tuning.
func TestLockstepBitIdenticalToIndependentTrainers(t *testing.T) {
	cases := []struct {
		targets, hidden, d, b int
		mode                  string
	}{
		{1, 16, 13, 8, "warm"},
		{2, 1, 1, 1, "cold"},
		{3, 3, 3, 5, "finetune"},
		{4, 4, 5, 8, "cold"},
		{5, 17, 13, 5, "warm"},
		{4, 16, 3, 8, "finetune"},
		{3, 17, 5, 1, "warm"},
		{2, 16, 13, 5, "cold"},
		{5, 3, 1, 8, "finetune"},
		{1, 4, 3, 1, "cold"},
	}
	for _, c := range cases {
		name := fmt.Sprintf("T%d_h[%d]_d%d_B%d_%s", c.targets, c.hidden, c.d, c.b, c.mode)
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Hidden = c.hidden
			cfg.MaxEpochs = 40
			cfg.Patience = 4
			cfg.BatchSize = c.b
			cfg.Seed = int64(len(name))
			if c.mode == "warm" {
				cfg.WarmStartEpochs = 12
			}
			sets := lockstepSets(48, c.d, c.targets, cfg.Seed)
			var got, want []*Ensemble
			switch c.mode {
			case "finetune":
				bases := make([]*Ensemble, c.targets)
				for i, set := range sets {
					var err error
					if bases[i], err = refTrainEnsemble(set, 4, cfg); err != nil {
						t.Fatal(err)
					}
				}
				fresh := lockstepSets(40, c.d, c.targets, cfg.Seed+1)
				ft := cfg
				ft.Seed += 7
				ft.WarmStartEpochs = 10
				var err error
				if got, err = FineTuneEnsembles(bases, fresh, ft); err != nil {
					t.Fatal(err)
				}
				for i, set := range fresh {
					ens, err := refFineTuneEnsemble(bases[i], set, ft)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, ens)
				}
			default:
				var err error
				if got, err = TrainEnsembles(sets, 4, cfg); err != nil {
					t.Fatal(err)
				}
				for _, set := range sets {
					ens, err := refTrainEnsemble(set, 4, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, ens)
				}
			}
			for i := range want {
				requireSameEnsemble(t, fmt.Sprintf("target %d", i), got[i], want[i])
			}
		})
	}

	// Targets that stop at different epochs: the lockstep compacts each
	// one out when its patience runs out and the rest carry on.
	t.Run("staggered_stops", func(t *testing.T) {
		sets := lockstepSets(60, 5, 4, 3)
		sets[1] = append([]Sample(nil), sets[1]...)
		for i := range sets[1] {
			sets[1][i].Y = float64(i%7) * 0.1 // unlearnable: stops first
		}
		var packed []*dataSet
		for _, set := range sets {
			ds, err := packSamples(set, 5)
			if err != nil {
				t.Fatal(err)
			}
			packed = append(packed, ds)
		}
		groups, merged := groupShared(packed, nil)
		if len(groups) != 1 {
			t.Fatalf("shared X formed %d groups, want 1", len(groups))
		}
		ds := merged[0]
		trainIdx, validIdx := identityIdx(40), identityIdx(60)[40:]
		cfg := DefaultConfig()
		cfg.MaxEpochs = 300
		cfg.Patience = 6
		cfg.BatchSize = 5
		nets, res, err := trainCore(ds, trainIdx, ds, validIdx, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		epochs := map[int]bool{}
		for i := range ds.y {
			want, wantRes, err := refTrainCore(ds, ds.y[i], trainIdx, ds, ds.y[i], validIdx, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res[i] != wantRes {
				t.Fatalf("target %d: result %+v, independent trainer %+v", i, res[i], wantRes)
			}
			if !weightsEqual(nets[i], want) {
				t.Fatalf("target %d: weights differ from the independent trainer's", i)
			}
			epochs[res[i].Epochs] = true
		}
		if len(epochs) < 3 {
			t.Fatalf("targets stopped at %d distinct epochs, want ≥ 3 (results %+v)", len(epochs), res)
		}
	})
}
