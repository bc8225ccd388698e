package ann

import (
	"errors"
	"math"
)

// Scaler standardises feature vectors and min-max-scales the target into a
// comfortable range for network training, and inverts the target transform
// at prediction time. Fitting happens on training data only; the same
// transform is then applied to validation and live inputs.
type Scaler struct {
	Mean, Std  []float64 // per-feature standardisation
	YMin, YMax float64   // target range observed in training data
}

// FitScaler computes feature means/standard deviations and the target range
// from the samples. Constant features get Std 1 so they pass through as
// zeros. A NaN or infinite feature or label is an error naming the sample
// and the feature.
func FitScaler(samples []Sample) (*Scaler, error) {
	if len(samples) == 0 {
		return nil, errors.New("ann: cannot fit scaler on empty set")
	}
	d := len(samples[0].X)
	sc := &Scaler{
		Mean: make([]float64, d),
		Std:  make([]float64, d),
		YMin: math.Inf(1),
		YMax: math.Inf(-1),
	}
	for si, s := range samples {
		if len(s.X) != d {
			return nil, errors.New("ann: inconsistent feature dimensions")
		}
		if err := checkFinite(si, s); err != nil {
			return nil, err
		}
		for i, v := range s.X {
			sc.Mean[i] += v
		}
		if s.Y < sc.YMin {
			sc.YMin = s.Y
		}
		if s.Y > sc.YMax {
			sc.YMax = s.Y
		}
	}
	n := float64(len(samples))
	for i := range sc.Mean {
		sc.Mean[i] /= n
	}
	for _, s := range samples {
		for i, v := range s.X {
			dv := v - sc.Mean[i]
			sc.Std[i] += float64(dv * dv)
		}
	}
	for i := range sc.Std {
		sc.Std[i] = math.Sqrt(sc.Std[i] / n)
		if sc.Std[i] < 1e-12 {
			sc.Std[i] = 1
		}
	}
	if sc.YMax-sc.YMin < 1e-12 {
		sc.YMax = sc.YMin + 1
	}
	return sc, nil
}

// XInto standardises the feature vector x into dst (grown when too small).
func (sc *Scaler) XInto(dst, x []float64) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = (v - sc.Mean[i]) / sc.Std[i]
	}
	return dst
}

// Y maps a raw target into [0.1, 0.9].
func (sc *Scaler) Y(y float64) float64 {
	return 0.1 + 0.8*(y-sc.YMin)/(sc.YMax-sc.YMin)
}

// InvY maps a network output back to the raw target scale.
func (sc *Scaler) InvY(y float64) float64 {
	return sc.YMin + float64((y-0.1)/0.8*(sc.YMax-sc.YMin))
}

// pack normalises a whole sample set straight into a packed dataSet (two
// flat buffers, not one X slice per sample) — the form the trainers read.
func (sc *Scaler) pack(samples []Sample) (*dataSet, error) {
	return packWith(samples, len(sc.Mean),
		func(dst, x []float64) { sc.XInto(dst, x) },
		sc.Y)
}
