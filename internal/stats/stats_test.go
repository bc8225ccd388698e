package stats

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s, err := summarize([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Errorf("Summary = %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("StdDev = %g, want %g", s.StdDev, want)
	}
	if _, err := summarize(nil); err == nil {
		t.Error("empty summary accepted")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := summarize([]float64{7})
	if err != nil || s.StdDev != 0 || s.Mean != 7 {
		t.Errorf("single-sample summary = %+v (%v)", s, err)
	}
}

func TestMeanCI(t *testing.T) {
	mean, hw, err := MeanCI([]float64{10, 12, 8, 10}, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if mean != 10 {
		t.Errorf("mean = %g", mean)
	}
	if hw <= 0 || hw > 5 {
		t.Errorf("half width = %g", hw)
	}
	// Single sample: infinite interval, not an error.
	_, hw, err = MeanCI([]float64{1}, 1.96)
	if err != nil || !math.IsInf(hw, 1) {
		t.Errorf("single-sample CI = %g (%v)", hw, err)
	}
}
