package ann

// Sample is one supervised training example: feature vector X and scalar
// target Y (normalised IPC in ACTOR's use).
type Sample struct {
	X []float64
	Y float64
}

// Backprop runs at one step size, one momentum and one mini-batch size
// throughout the reproduction: every update is v ← μv − η∂E/∂w; w ← w + v,
// with the gradient summed (not averaged) over batchSize samples, so one
// batch step approximates batchSize consecutive per-sample steps at the
// same step size. Batches are consecutive chunks of each epoch's shuffled
// order (fixed shuffle → fixed batch partition), so training stays
// deterministic under Seed at any GOMAXPROCS.
const (
	learningRate = 0.05 // η
	momentum     = 0.5  // μ, the velocity retention
	batchSize    = 8    // B, samples per fused forward/backward/update pass
)

// Config controls network construction and training. The step size,
// momentum and mini-batch size are the package constants η = 0.05, μ = 0.5
// and B = 8.
type Config struct {
	// MaxEpochs bounds training length.
	MaxEpochs int
	// Patience is the number of consecutive non-improving validation
	// epochs tolerated before early stopping halts training (the paper's
	// overfitting counter-measure [15]).
	Patience int
	// Seed makes training deterministic.
	Seed int64
	// WarmStartEpochs, when > 0, switches TrainEnsemble to warm-start
	// mode: one base network is trained per ensemble on (almost) the full
	// dataset, and each fold member then fine-tunes a copy of the base
	// weights for at most WarmStartEpochs epochs instead of training from
	// random initialisation for MaxEpochs. Folds share all but 2/k of
	// their data, so fine-tuning converges in a fraction of the epochs.
	// 0 (the default) keeps the sequential-equivalent cold-start
	// behaviour. See TrainEnsemble for the fold protocol.
	WarmStartEpochs int

	// batch, when non-zero, replaces batchSize. Only in-package tests set
	// it, to hold the lockstep pass to the per-sample reference at other
	// batch sizes.
	batch int
}

// batchRows returns the mini-batch size training runs at.
func (c Config) batchRows() int {
	if c.batch > 0 {
		return c.batch
	}
	return batchSize
}

// DefaultConfig returns the training configuration used throughout the
// reproduction: up to 400 epochs with patience 25 and cold-start ensembles
// (WarmStartEpochs is an opt-in performance knob).
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
