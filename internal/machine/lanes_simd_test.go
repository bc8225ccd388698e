//go:build amd64 && !actor_noasm

package machine

import (
	"math"
	"math/rand"
	"testing"

	"github.com/greenhpc/actor/internal/simd"
)

// laneInputs builds a lane block with values spanning the model's realistic
// ranges plus denormals, huge magnitudes and special values.
func laneInputs(rng *rand.Rand, n int) *laneState {
	ls := &laneState{}
	pick := func(i int) float64 {
		switch i % 7 {
		case 0:
			return rng.Float64() * 10
		case 1:
			return rng.Float64() * 1e-3
		case 2:
			return rng.Float64() * 1e6
		case 3:
			return 5e-324
		case 4:
			return math.MaxFloat64 * rng.Float64()
		case 5:
			return math.Inf(1)
		default:
			return math.NaN()
		}
	}
	for i := 0; i < n; i++ {
		ls.append(pick(i+1), pick(i+2), pick(i+3), pick(i+5), 0.5+rng.Float64(), 1, 0)
	}
	ls.sizeDerived()
	for i := range ls.bus {
		ls.bus[i] = 1 + rng.Float64()*3
	}
	return ls
}

func cloneLanes(src *laneState) *laneState {
	dst := &laneState{}
	dst.base = append(dst.base, src.base...)
	dst.pfx = append(dst.pfx, src.pfx...)
	dst.q = append(dst.q, src.q...)
	dst.min = append(dst.min, src.min...)
	dst.divf = append(dst.divf, src.divf...)
	dst.bus = append(dst.bus, src.bus...)
	dst.cpi = append(dst.cpi, src.cpi...)
	dst.contrib = append(dst.contrib, src.contrib...)
	dst.done = append(dst.done, src.done...)
	return dst
}

// TestAdvanceLanesBitIdentical drives the AVX2 lane kernel and the scalar
// reference over identical blocks — odd lengths for tail lanes, and a
// second iteration with retired lanes whose inputs are frozen (the solver's
// invariant that makes recomputing them exact).
func TestAdvanceLanesBitIdentical(t *testing.T) {
	f := simd.Detect()
	if !f.AVX2 || !f.OSYMM {
		t.Skip("no AVX2 on this machine")
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 100} {
		ph, mlp := 0.6+rng.Float64()*0.4, 1+rng.Float64()*3
		freq, tpm := 1e9*(1+rng.Float64()*2), rng.Float64()*128

		want := laneInputs(rng, n)
		got := cloneLanes(want)
		advanceLanesScalar(want, ph, mlp, freq, tpm)
		advanceLanesAVX2(got, ph, mlp, freq, tpm)
		for i := 0; i < n; i++ {
			if math.Float64bits(got.cpi[i]) != math.Float64bits(want.cpi[i]) ||
				math.Float64bits(got.contrib[i]) != math.Float64bits(want.contrib[i]) {
				t.Fatalf("n=%d lane %d: cpi %x vs %x, contrib %x vs %x", n, i,
					math.Float64bits(got.cpi[i]), math.Float64bits(want.cpi[i]),
					math.Float64bits(got.contrib[i]), math.Float64bits(want.contrib[i]))
			}
		}

		// Retire a random subset (inputs frozen), perturb only live lanes'
		// bus factors, advance again: the vector kernel recomputes retired
		// lanes and must land on the exact bits they already hold.
		for i := 0; i < n; i++ {
			retire := rng.Intn(2) == 0
			want.done[i] = retire
			got.done[i] = retire
			if !retire {
				b := 1 + rng.Float64()*3
				want.bus[i] = b
				got.bus[i] = b
			}
		}
		advanceLanesScalar(want, ph, mlp, freq, tpm)
		advanceLanesAVX2(got, ph, mlp, freq, tpm)
		for i := 0; i < n; i++ {
			if math.Float64bits(got.cpi[i]) != math.Float64bits(want.cpi[i]) ||
				math.Float64bits(got.contrib[i]) != math.Float64bits(want.contrib[i]) {
				t.Fatalf("n=%d lane %d after retirement: cpi %x vs %x, contrib %x vs %x", n, i,
					math.Float64bits(got.cpi[i]), math.Float64bits(want.cpi[i]),
					math.Float64bits(got.contrib[i]), math.Float64bits(want.contrib[i]))
			}
		}
	}
}

// FuzzAdvanceLanesBitIdentity lets the fuzzer hunt for parameter and lane
// value combinations where the vector kernel could diverge.
func FuzzAdvanceLanesBitIdentity(f *testing.F) {
	f.Add(int64(1), uint8(5))
	f.Add(int64(42), uint8(13))
	f.Fuzz(func(t *testing.T, seed int64, nB uint8) {
		fz := simd.Detect()
		if !fz.AVX2 || !fz.OSYMM {
			t.Skip("no AVX2")
		}
		n := int(nB % 40)
		rng := rand.New(rand.NewSource(seed))
		ph, mlp := rng.Float64()*2, rng.Float64()*4
		freq, tpm := rng.Float64()*3e9, rng.Float64()*256
		want := laneInputs(rng, n)
		got := cloneLanes(want)
		advanceLanesScalar(want, ph, mlp, freq, tpm)
		advanceLanesAVX2(got, ph, mlp, freq, tpm)
		for i := 0; i < n; i++ {
			if math.Float64bits(got.cpi[i]) != math.Float64bits(want.cpi[i]) ||
				math.Float64bits(got.contrib[i]) != math.Float64bits(want.contrib[i]) {
				t.Fatalf("lane %d diverged", i)
			}
		}
	})
}
