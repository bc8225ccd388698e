// Package ann implements the artificial neural networks at the heart of the
// paper's predictor: three-layer networks — one sigmoid hidden layer and a
// linear output unit — trained by backpropagation with momentum at one
// step size and momentum (η = 0.05, μ = 0.5, package constants), early
// stopping on a validation set, and k-fold cross-validation ensembles whose
// averaged output is the final prediction (the paper's Section IV-A
// methodology). [inputs, Hidden, 1] is the only shape; the constructors
// refuse any other.
//
// The implementation is self-contained (stdlib only), deterministic under a
// caller-provided seed, and trains fold models in parallel. Weights are
// stored flat (one contiguous row-major slice per layer). An ensemble
// predicts through one stacked pass over all its members (stack.go) on
// pooled scratch, so prediction allocates nothing in steady state — the
// predictor sits on the runtime's decision path, where allocation churn is
// measurable.
//
// Training runs on one packed corpus (normalised samples in flat row-major
// matrices; folds, batches and validation sets are index views into it)
// through one loop, trainCore, that trains every target sharing the
// corpus's feature rows in lockstep (lockstep.go): fused
// forward/backward/update passes over Config.BatchSize samples at a time,
// with the hidden layer of all targets packed into one feature-major matrix.
// Each target's result is bit-identical to training it alone, and at the
// default batch size of one to classic per-sample stochastic backprop (the
// references live beside the tests that pin them). Config.WarmStartEpochs
// > 0 makes TrainEnsemble fine-tune every fold from one shared base model
// instead of training each from scratch. Both knobs preserve determinism
// under a seed (fixed shuffle → fixed batch partition); together they make
// leave-one-out training the pipeline's fast path (see PERFORMANCE.md).
package ann

import (
	"fmt"
	"math"
	"math/rand"
)

// Hidden is the width of the one sigmoid hidden layer: every network is the
// paper's three-layer [inputs, Hidden, 1].
const Hidden = 16

// Network is a three-layer feed-forward neural network — a sigmoid hidden
// layer and a linear output unit — suited to scalar regression targets such
// as IPC.
type Network struct {
	// Sizes lists layer widths from input to output, e.g. [13, 16, 1].
	Sizes []int
	// w[0] is the hidden layer's weight matrix and w[1] the output unit's,
	// each flattened row-major: Sizes[l+1] rows of (Sizes[l]+1) columns,
	// the last column being the unit bias.
	w [][]float64
}

// checkSizes enforces the one network shape: [inputs, Hidden, 1] with at
// least one input.
func checkSizes(sizes []int) error {
	if len(sizes) != 3 {
		return fmt.Errorf("ann: layer sizes %v: a network has exactly one hidden layer, [inputs, %d, 1]", sizes, Hidden)
	}
	if sizes[0] < 1 {
		return fmt.Errorf("ann: %d inputs: a network needs at least one", sizes[0])
	}
	if sizes[2] != 1 {
		return fmt.Errorf("ann: output layer of %d units: a network has one linear output unit", sizes[2])
	}
	if sizes[1] != Hidden {
		return fmt.Errorf("ann: hidden layer of %d units: a network has %d hidden units", sizes[1], Hidden)
	}
	return nil
}

// rowWidth returns the flattened row length of layer l (fan-in + bias).
func (n *Network) rowWidth(l int) int { return n.Sizes[l] + 1 }

// layerRow returns the weight row of unit j in layer l.
func (n *Network) layerRow(l, j int) []float64 {
	w := n.rowWidth(l)
	return n.w[l][j*w : (j+1)*w]
}

// NewNetwork creates an [inputs, Hidden, 1] network with small random
// initial weights drawn from rng (uniform in ±1/sqrt(fanIn), the classic
// backprop initialisation that keeps sigmoid units in their linear region).
func NewNetwork(sizes []int, rng *rand.Rand) (*Network, error) {
	if err := checkSizes(sizes); err != nil {
		return nil, err
	}
	n := &Network{Sizes: append([]int(nil), sizes...)}
	n.w = make([][]float64, len(sizes)-1)
	for l := range n.w {
		fanIn := sizes[l]
		scale := 1 / math.Sqrt(float64(fanIn))
		layer := make([]float64, sizes[l+1]*(fanIn+1))
		for i := range layer {
			// rand's Float64, inlined, ends in a product the compiler would
			// fuse with the doubling (formed as f+f): convert it first.
			layer[i] = float64(float64(rng.Float64())*2*scale) - scale
		}
		n.w[l] = layer
	}
	return n, nil
}

// sigmoid is the logistic activation used by all hidden units (Fig. 5 of
// the paper). The exponential is the polynomial fastExp (see gemm.go),
// shared by the per-sample and batched passes so the two stay bit-identical
// with each other.
func sigmoid(x float64) float64 {
	return 1 / (1 + fastExp(-x))
}

// InputDim returns the expected input vector length.
func (n *Network) InputDim() int { return n.Sizes[0] }

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	cp := &Network{Sizes: append([]int(nil), n.Sizes...)}
	cp.w = make([][]float64, len(n.w))
	for l := range n.w {
		cp.w[l] = append([]float64(nil), n.w[l]...)
	}
	return cp
}
