// Package ann implements the artificial neural networks at the heart of the
// paper's predictor: fully connected feed-forward networks with sigmoid
// hidden units trained by backpropagation with momentum, early stopping on a
// validation set, and k-fold cross-validation ensembles whose averaged
// output is the final prediction (the paper's Section IV-A methodology).
//
// The implementation is self-contained (stdlib only), deterministic under a
// caller-provided seed, and trains fold models in parallel. Weights are
// stored flat (one contiguous row-major slice per layer) and the forward
// pass runs on reusable scratch buffers, so prediction allocates
// nothing in steady state — the predictor sits on the runtime's
// decision path, where allocation churn is measurable.
//
// Training runs on one packed corpus (normalised samples in flat row-major
// matrices; folds, batches and validation sets are index views into it)
// through one loop, trainCore, that trains every target sharing the
// corpus's feature rows in lockstep (lockstep.go): fused
// forward/backward/update passes over Config.BatchSize samples at a time,
// with the first layer of all targets packed into one feature-major matrix.
// Each target's result is bit-identical to training it alone, and at the
// default batch size of one to classic per-sample stochastic backprop (the
// references live beside the tests that pin them). Config.WarmStartEpochs
// > 0 makes TrainEnsemble fine-tune every fold from one shared base model
// instead of training each from scratch. Both knobs preserve determinism
// under a seed (fixed shuffle → fixed batch partition); together they make
// leave-one-out training the pipeline's fast path (see PERFORMANCE.md).
package ann

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Network is a feed-forward neural network with sigmoid hidden layers and a
// linear output unit, suited to scalar regression targets such as IPC.
type Network struct {
	// Sizes lists layer widths from input to output, e.g. [13, 16, 1].
	Sizes []int
	// w[l] is layer l's weight matrix, flattened row-major: Sizes[l+1]
	// rows of (Sizes[l]+1) columns, the last column being the unit bias.
	w [][]float64

	// pool recycles forward scratch buffers across calls;
	// the zero value is ready to use and is not copied (Network is
	// handled by pointer throughout).
	pool sync.Pool
}

// rowWidth returns the flattened row length of layer l (fan-in + bias).
func (n *Network) rowWidth(l int) int { return n.Sizes[l] + 1 }

// layerRow returns the weight row of unit j in layer l.
func (n *Network) layerRow(l, j int) []float64 {
	w := n.rowWidth(l)
	return n.w[l][j*w : (j+1)*w]
}

// NewNetwork creates a network with the given layer sizes and small random
// initial weights drawn from rng (uniform in ±1/sqrt(fanIn), the classic
// backprop initialisation that keeps sigmoid units in their linear region).
func NewNetwork(sizes []int, rng *rand.Rand) (*Network, error) {
	if len(sizes) < 2 {
		return nil, errors.New("ann: need at least input and output layers")
	}
	for _, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("ann: invalid layer size %d", s)
		}
	}
	n := &Network{Sizes: append([]int(nil), sizes...)}
	n.w = make([][]float64, len(sizes)-1)
	for l := 0; l < len(sizes)-1; l++ {
		fanIn := sizes[l]
		scale := 1 / math.Sqrt(float64(fanIn))
		layer := make([]float64, sizes[l+1]*(fanIn+1))
		for i := range layer {
			layer[i] = rng.Float64()*2*scale - scale
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

// scratch holds the per-call working memory of forward: activations for
// every layer past the input. One scratch serves any number of sequential
// passes; the pool hands each concurrent caller its own.
type scratch struct {
	acts [][]float64 // acts[l] is layer l+1's activations
}

// getScratch fetches (or sizes) a scratch matching the network topology.
func (n *Network) getScratch() *scratch {
	if s, ok := n.pool.Get().(*scratch); ok && s.fits(n) {
		return s
	}
	s := &scratch{acts: make([][]float64, len(n.Sizes)-1)}
	for l := 1; l < len(n.Sizes); l++ {
		s.acts[l-1] = make([]float64, n.Sizes[l])
	}
	return s
}

func (n *Network) putScratch(s *scratch) { n.pool.Put(s) }

// fits reports whether the scratch matches the network's topology — Sizes
// is an exported field, so a pooled scratch is re-checked, never trusted.
func (s *scratch) fits(n *Network) bool {
	if len(s.acts) != len(n.Sizes)-1 {
		return false
	}
	for l := 1; l < len(n.Sizes); l++ {
		if len(s.acts[l-1]) != n.Sizes[l] {
			return false
		}
	}
	return true
}

// forward runs the network on input x, writing every layer's activations
// into s and returning the scalar output. x must have length Sizes[0].
func (n *Network) forward(x []float64, s *scratch) float64 {
	in := x
	for l := 0; l < len(n.w); l++ {
		out := s.acts[l]
		last := l == len(n.w)-1
		rowW := n.rowWidth(l)
		layer := n.w[l]
		for j := range out {
			row := layer[j*rowW : (j+1)*rowW]
			sum := row[rowW-1] // bias
			for i, v := range in {
				sum += row[i] * v
			}
			if last {
				out[j] = sum // linear output unit
			} else {
				out[j] = sigmoid(sum)
			}
		}
		in = out
	}
	return s.acts[len(s.acts)-1][0]
}

// Predict returns the network's output for input x. It panics if x has the
// wrong dimension, which always indicates a programming error upstream.
// Predict is safe for concurrent use.
func (n *Network) Predict(x []float64) float64 {
	if len(x) != n.Sizes[0] {
		panic(fmt.Sprintf("ann: input dim %d, want %d", len(x), n.Sizes[0]))
	}
	s := n.getScratch()
	y := n.forward(x, s)
	n.putScratch(s)
	return y
}

// InputDim returns the expected input vector length.
func (n *Network) InputDim() int { return n.Sizes[0] }

// LayerShape returns (units, weightsPerUnit) of layer l — the row count and
// row width (fan-in plus bias) of its weight matrix.
func (n *Network) LayerShape(l int) (units, weightsPerUnit int) {
	return n.Sizes[l+1], n.rowWidth(l)
}

// NumLayers returns the number of weight layers (len(Sizes) − 1).
func (n *Network) NumLayers() int { return len(n.w) }

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	cp := &Network{Sizes: append([]int(nil), n.Sizes...)}
	cp.w = make([][]float64, len(n.w))
	for l := range n.w {
		cp.w[l] = append([]float64(nil), n.w[l]...)
	}
	return cp
}

// MSE returns the mean squared error of the network over the samples. Like
// Predict, it panics on a dimension mismatch — a programming error
// upstream that must not become a silently wrong error estimate.
func (n *Network) MSE(set []Sample) float64 {
	if len(set) == 0 {
		return 0
	}
	s := n.getScratch()
	var sum float64
	for i := range set {
		if len(set[i].X) != n.Sizes[0] {
			panic(fmt.Sprintf("ann: input dim %d, want %d", len(set[i].X), n.Sizes[0]))
		}
		d := n.forward(set[i].X, s) - set[i].Y
		sum += d * d
	}
	n.putScratch(s)
	return sum / float64(len(set))
}
