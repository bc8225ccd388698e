// Package metrics provides the statistical helpers the evaluation harnesses
// share: prediction-error summaries (CDFs, medians, fraction under a
// threshold — Fig. 6), rank-selection accuracy (Fig. 7), and the normalised
// geometric means used in Fig. 3 and Fig. 8.
package metrics

import (
	"errors"
	"math"
	"sort"
)

// RelativeError returns |observed − predicted| / |observed|, the error
// definition of Fig. 6. A zero observation yields +Inf unless the
// prediction is also zero.
func RelativeError(observed, predicted float64) float64 {
	if observed == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs((observed - predicted) / observed)
}

// Median returns the median of xs (mean of the middle pair for even
// lengths). It errors on an empty slice.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("metrics: median of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], nil
	}
	return (s[n/2-1] + s[n/2]) / 2, nil
}

// FractionBelow returns the share of values strictly below the threshold.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// CDFPoint is one point of an empirical cumulative distribution.
type CDFPoint struct {
	// Value is the error level (x axis of Fig. 6).
	Value float64
	// Fraction is the share of observations ≤ Value.
	Fraction float64
}

// CDF evaluates the empirical CDF of xs at each of the given levels.
func CDF(xs []float64, levels []float64) []CDFPoint {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]CDFPoint, len(levels))
	for i, lv := range levels {
		idx := sort.SearchFloat64s(s, math.Nextafter(lv, math.Inf(1)))
		frac := 0.0
		if len(s) > 0 {
			frac = float64(idx) / float64(len(s))
		}
		out[i] = CDFPoint{Value: lv, Fraction: frac}
	}
	return out
}

// rankOf returns the 1-based position of needle within ranking, or 0 when
// absent. Used to score a selected configuration against the oracle
// fastest-to-slowest order (Fig. 7).
func rankOf(ranking []string, needle string) int {
	for i, r := range ranking {
		if r == needle {
			return i + 1
		}
	}
	return 0
}

// RankHistogram tallies how often each rank (1..n) was selected, given
// pairs of (oracle ranking, selected name). The result has one bucket per
// rank position; selections absent from their ranking are counted in
// Missing.
type RankHistogram struct {
	// Counts[i] is the number of selections with rank i+1.
	Counts []int
	// Missing counts selections not present in their ranking.
	Missing int
	// Total is the number of selections scored.
	Total int
}

// NewRankHistogram builds a histogram for rankings of length n.
func NewRankHistogram(n int) *RankHistogram {
	return &RankHistogram{Counts: make([]int, n)}
}

// Add scores one selection.
func (h *RankHistogram) Add(ranking []string, selected string) {
	h.Total++
	r := rankOf(ranking, selected)
	if r == 0 || r > len(h.Counts) {
		h.Missing++
		return
	}
	h.Counts[r-1]++
}

// Fraction returns the share of selections at the given 1-based rank.
func (h *RankHistogram) Fraction(rank int) float64 {
	if h.Total == 0 || rank < 1 || rank > len(h.Counts) {
		return 0
	}
	return float64(h.Counts[rank-1]) / float64(h.Total)
}

// GeoMean returns the geometric mean of positive values; it errors on empty
// input or non-positive entries.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("metrics: geomean of empty slice")
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("metrics: geomean requires positive values")
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// Mean returns the arithmetic mean; zero for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
