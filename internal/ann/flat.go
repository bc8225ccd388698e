package ann

import "fmt"

// FlatWeights returns a deep copy of the network's weights in their native
// flat form: one row-major slice per weight layer, Sizes[l+1] rows of
// (Sizes[l]+1) columns with the last column holding the unit bias. This is
// the layout the bank serialization format stores verbatim, so a network
// round-trips through NewNetworkFromFlat without any reshaping loss.
func (n *Network) FlatWeights() [][]float64 {
	out := make([][]float64, len(n.w))
	for l := range n.w {
		out[l] = append([]float64(nil), n.w[l]...)
	}
	return out
}

// NewNetworkFromFlat constructs a network directly from flat per-layer
// weights as produced by FlatWeights, validating the [inputs, hidden, 1]
// shape and every layer's length against sizes. Both arguments are copied.
func NewNetworkFromFlat(sizes []int, weights [][]float64) (*Network, error) {
	if err := checkSizes(sizes); err != nil {
		return nil, err
	}
	if len(weights) != len(sizes)-1 {
		return nil, fmt.Errorf("ann: %d weight layers for %d layer sizes", len(weights), len(sizes))
	}
	n := &Network{Sizes: append([]int(nil), sizes...)}
	n.w = make([][]float64, len(weights))
	for l := range weights {
		want := sizes[l+1] * (sizes[l] + 1)
		if len(weights[l]) != want {
			return nil, fmt.Errorf("ann: layer %d has %d weights, want %d (%d units × %d fan-in+bias)",
				l, len(weights[l]), want, sizes[l+1], sizes[l]+1)
		}
		n.w[l] = append([]float64(nil), weights[l]...)
	}
	return n, nil
}
