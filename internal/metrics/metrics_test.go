package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRelativeError(t *testing.T) {
	cases := []struct {
		obs, pred, want float64
	}{
		{10, 9, 0.1}, {10, 11, 0.1}, {-10, -9, 0.1}, {5, 5, 0}, {0, 0, 0},
	}
	for _, c := range cases {
		if got := RelativeError(c.obs, c.pred); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RelativeError(%g, %g) = %g, want %g", c.obs, c.pred, got, c.want)
		}
	}
	if !math.IsInf(RelativeError(0, 1), 1) {
		t.Error("zero observation with non-zero prediction should be +Inf")
	}
}

func TestMedian(t *testing.T) {
	if _, err := Median(nil); err == nil {
		t.Error("empty median accepted")
	}
	if m, _ := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m, _ := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	// Median must not mutate the input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Error("Median sorted the caller's slice")
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{0.01, 0.04, 0.05, 0.2}
	if got := FractionBelow(xs, 0.05); got != 0.5 {
		t.Errorf("FractionBelow = %g, want 0.5 (strict)", got)
	}
	if got := FractionBelow(nil, 1); got != 0 {
		t.Errorf("empty FractionBelow = %g", got)
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.3}
	pts := CDF(xs, []float64{0, 0.1, 0.25, 1})
	want := []float64{0, 1.0 / 3, 2.0 / 3, 1}
	for i, pt := range pts {
		if math.Abs(pt.Fraction-want[i]) > 1e-12 {
			t.Errorf("CDF at %g = %g, want %g", pt.Value, pt.Fraction, want[i])
		}
	}
	// Monotone non-decreasing for arbitrary input.
	f := func(raw []float64) bool {
		levels := []float64{0, 0.25, 0.5, 0.75, 1}
		pts := CDF(raw, levels)
		prev := -1.0
		for _, p := range pts {
			if p.Fraction < prev {
				return false
			}
			prev = p.Fraction
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRankHistogram(t *testing.T) {
	h := NewRankHistogram(5)
	ranking := []string{"2b", "4", "3", "2a", "1"}
	h.Add(ranking, "2b") // rank 1
	h.Add(ranking, "2b") // rank 1
	h.Add(ranking, "4")  // rank 2
	h.Add(ranking, "zz") // missing
	if h.Total != 4 {
		t.Errorf("Total = %d", h.Total)
	}
	if h.Fraction(1) != 0.5 {
		t.Errorf("Fraction(1) = %g", h.Fraction(1))
	}
	if h.Fraction(2) != 0.25 {
		t.Errorf("Fraction(2) = %g", h.Fraction(2))
	}
	if h.Missing != 1 {
		t.Errorf("Missing = %d", h.Missing)
	}
	if h.Fraction(0) != 0 || h.Fraction(6) != 0 {
		t.Error("out-of-range rank fractions should be 0")
	}
}

func TestRankOf(t *testing.T) {
	r := []string{"a", "b", "c"}
	if rankOf(r, "b") != 2 {
		t.Error("rankOf(b) != 2")
	}
	if rankOf(r, "z") != 0 {
		t.Error("rankOf(missing) != 0")
	}
}

func TestGeoMean(t *testing.T) {
	if _, err := GeoMean(nil); err == nil {
		t.Error("empty geomean accepted")
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Error("negative geomean accepted")
	}
	got, err := GeoMean([]float64{2, 8})
	if err != nil || math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %g (%v)", got, err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
}
