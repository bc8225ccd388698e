// Package stats provides the small statistical toolkit used to report
// reproduction robustness: normal-approximation confidence intervals. The
// evaluation's headline numbers (median prediction error, ED² savings) are
// seed-dependent; internal/exp's robustness driver re-runs them across
// seeds and reports intervals instead of point estimates.
package stats

import (
	"errors"
	"math"
)

// summary holds the usual moments of a sample.
type summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n−1)
}

// summarize computes a summary; it errors on empty input.
func summarize(xs []float64) (summary, error) {
	if len(xs) == 0 {
		return summary{}, errors.New("stats: empty sample")
	}
	s := summary{N: len(xs)}
	for _, x := range xs {
		s.Mean += x
	}
	s.Mean /= float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			// The conversion keeps the square from fusing into an FMA
			// (arm64): the same bits on every target.
			ss += float64(d * d)
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s, nil
}

// z95 is the standard normal quantile of a two-sided 95 % interval.
const z95 = 1.96

// MeanCI returns the mean and its normal-approximation 95 % confidence
// interval half-width.
func MeanCI(xs []float64) (mean, halfWidth float64, err error) {
	s, err := summarize(xs)
	if err != nil {
		return 0, 0, err
	}
	if s.N < 2 {
		return s.Mean, math.Inf(1), nil
	}
	return s.Mean, z95 * s.StdDev / math.Sqrt(float64(s.N)), nil
}
