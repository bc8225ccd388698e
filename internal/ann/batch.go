// Packed training corpus: the one layout every training run reads.
package ann

import (
	"errors"
	"fmt"
	"math"
)

// dataSet is a packed training corpus shared by one or more targets: input
// row i lives at x[i·(d+1) : (i+1)·(d+1)] as the constant 1 the bias
// weights multiply followed by the d features, and target t's label for it
// is y[t][i]. Packing happens once per training run; every fold, batch and
// validation view is then an index slice into the packed rows, so no
// per-fold sample copying survives on the training path, and targets whose
// inputs are bitwise identical share one x.
type dataSet struct {
	x []float64
	y [][]float64
	d int
}

// n returns the number of rows.
func (ds *dataSet) n() int { return len(ds.x) / (ds.d + 1) }

// input returns row i as the first layer consumes it: the bias input 1,
// then the features.
func (ds *dataSet) input(i int) []float64 { return ds.x[i*(ds.d+1) : (i+1)*(ds.d+1)] }

// row returns the features of row i (without the leading 1).
func (ds *dataSet) row(i int) []float64 { return ds.input(i)[1:] }

// checkFinite rejects a sample with a NaN or infinite feature or label:
// one such value would train every network of the run into NaN weights (or
// an ensemble whose error estimate is NaN) without any error.
func checkFinite(i int, s Sample) error {
	for f, v := range s.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ann: sample %d feature %d is %v; training data must be finite", i, f, v)
		}
	}
	if math.IsNaN(s.Y) || math.IsInf(s.Y, 0) {
		return fmt.Errorf("ann: sample %d target is %v; training data must be finite", i, s.Y)
	}
	return nil
}

// packWith packs samples into a one-target dataSet of feature dimension d,
// filling each feature row through fillX and each label through mapY, and
// validating every sample's dimension and finiteness (the caller fixes d
// from the training set so a validation set cannot silently disagree). It
// is the single point of truth for both the raw and the normalising
// packers.
func packWith(samples []Sample, d int, fillX func(dst, x []float64), mapY func(float64) float64) (*dataSet, error) {
	ds := &dataSet{
		x: make([]float64, len(samples)*(d+1)),
		y: [][]float64{make([]float64, len(samples))},
		d: d,
	}
	for i := range samples {
		if len(samples[i].X) != d {
			return nil, errors.New("ann: inconsistent feature dimensions")
		}
		if err := checkFinite(i, samples[i]); err != nil {
			return nil, err
		}
		row := ds.input(i)
		row[0] = 1
		fillX(row[1:], samples[i].X)
		ds.y[0][i] = mapY(samples[i].Y)
	}
	return ds, nil
}

// sameX reports whether two corpora hold bitwise-identical input rows.
func sameX(a, b *dataSet) bool {
	if a.d != b.d || len(a.x) != len(b.x) {
		return false
	}
	for i, v := range a.x {
		if math.Float64bits(v) != math.Float64bits(b.x[i]) {
			return false
		}
	}
	return true
}

// groupShared partitions one-target corpora into lockstep groups: sets
// join the first group whose first member has bitwise-identical input rows
// and is compatible with them by same (nil accepts any). Groups and their
// members keep the input order. It returns each group's set indices and
// its merged corpus, whose target t is the group's t-th set.
func groupShared(sets []*dataSet, same func(a, b int) bool) ([][]int, []*dataSet) {
	var groups [][]int
	var merged []*dataSet
	for i, ds := range sets {
		g := 0
		for ; g < len(groups); g++ {
			first := groups[g][0]
			if (same == nil || same(first, i)) && sameX(sets[first], ds) {
				break
			}
		}
		if g == len(groups) {
			groups = append(groups, nil)
			merged = append(merged, &dataSet{x: ds.x, d: ds.d})
		}
		groups[g] = append(groups[g], i)
		merged[g].y = append(merged[g].y, ds.y[0])
	}
	return groups, merged
}

// mseIdx returns the network's mean squared error against labels y over
// the listed rows of the packed corpus, one per-sample forward pass each —
// the ensemble's fold estimates.
func (n *Network) mseIdx(ds *dataSet, y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	if ds.d != n.Sizes[0] {
		panic(fmt.Sprintf("ann: input dim %d, want %d", ds.d, n.Sizes[0]))
	}
	hidden := make([]float64, n.Sizes[1])
	var sum float64
	for _, id := range idx {
		e := n.forward(ds.row(id), hidden) - y[id]
		sum += float64(e * e)
	}
	return sum / float64(len(idx))
}
