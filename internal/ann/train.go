package ann

// Sample is one supervised training example: feature vector X and scalar
// target Y (normalised IPC in ACTOR's use).
type Sample struct {
	X []float64
	Y float64
}

// Backprop runs at one step size and one momentum throughout the
// reproduction: every update is v ← μv − η∂E/∂w; w ← w + v.
const (
	learningRate = 0.05 // η
	momentum     = 0.5  // μ, the velocity retention
)

// Config controls network construction and training. The step size and
// momentum are the package constants η = 0.05 and μ = 0.5.
type Config struct {
	// MaxEpochs bounds training length.
	MaxEpochs int
	// Patience is the number of consecutive non-improving validation
	// epochs tolerated before early stopping halts training (the paper's
	// overfitting counter-measure [15]).
	Patience int
	// Seed makes training deterministic.
	Seed int64
	// BatchSize is the mini-batch size B of the fused GEMM training pass.
	// 0 or 1 (the default) is per-sample stochastic backprop — the classic
	// update rule, which the pass reproduces bit-for-bit at B = 1. Larger
	// values process B samples per fused
	// forward/backward/update call with summed (not averaged) gradients,
	// so one batch step approximates B consecutive per-sample steps at
	// the same learning rate. The epoch shuffle is unchanged and batches
	// are consecutive chunks of the shuffled order (fixed shuffle → fixed
	// batch partition), so training remains deterministic under Seed at
	// any GOMAXPROCS.
	BatchSize int
	// WarmStartEpochs, when > 0, switches TrainEnsemble to warm-start
	// mode: one base network is trained per ensemble on (almost) the full
	// dataset, and each fold member then fine-tunes a copy of the base
	// weights for at most WarmStartEpochs epochs instead of training from
	// random initialisation for MaxEpochs. Folds share all but 2/k of
	// their data, so fine-tuning converges in a fraction of the epochs.
	// 0 (the default) keeps the sequential-equivalent cold-start
	// behaviour. See TrainEnsemble for the fold protocol.
	WarmStartEpochs int
}

// DefaultConfig returns the training configuration used throughout the
// reproduction: up to 400 epochs with patience 25, per-sample updates and
// cold-start ensembles (BatchSize and WarmStartEpochs are opt-in
// performance knobs).
func DefaultConfig() Config {
	return Config{
		MaxEpochs: 400,
		Patience:  25,
		Seed:      1,
	}
}

// TrainResult reports what happened during training.
type TrainResult struct {
	// Epochs is the number of epochs actually run.
	Epochs int
	// TrainMSE and ValidMSE are the final errors on the (normalised)
	// training and validation sets.
	TrainMSE, ValidMSE float64
	// Stopped reports whether early stopping fired before MaxEpochs.
	Stopped bool
}
