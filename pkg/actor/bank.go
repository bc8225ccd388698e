package actor

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"

	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/pmu"
)

// Meta is the self-describing header of a bank: everything a serving
// process needs to use the predictors correctly without out-of-band
// knowledge.
type Meta struct {
	// Version is the serialization format version (BankVersion when the
	// bank was produced by this build).
	Version int `json:"version"`
	// Kind is the model family ("ann" or "mlr").
	Kind Kind `json:"kind"`
	// Topology is the compact descriptor of the machine the bank was
	// trained for ("" means the paper's quad-core Xeon).
	Topology string `json:"topology,omitempty"`
	// TopologyName and Cores describe the machine for humans.
	TopologyName string `json:"topology_name,omitempty"`
	Cores        int    `json:"cores,omitempty"`
	// Seed is the training seed.
	Seed int64 `json:"seed"`
	// Folds is the cross-validation ensemble size (0 for MLR banks).
	Folds int `json:"folds,omitempty"`
	// Configs is the configuration space, in canonical order; the last
	// entry is the maximal-concurrency sampling configuration.
	Configs []string `json:"configs"`
	// SampleConfig is the configuration counters are sampled at.
	SampleConfig string `json:"sample_config"`
	// EventSets lists each predictor's feature events (richest first).
	EventSets [][]string `json:"event_sets,omitempty"`
	// Generation counts online recalibrations: 0 for an offline-trained
	// bank, incremented each time actord promotes a retrained candidate.
	Generation int `json:"generation,omitempty"`
	// Provenance records how a recalibrated generation came to be; nil on
	// offline-trained banks and on banks saved by older builds.
	Provenance *Provenance `json:"provenance,omitempty"`
}

// Provenance is the audit record of one promoted recalibration: which
// generation it grew from, what tripped the retrain, how much data trained
// and validated it, and the holdout errors the promotion decision compared.
// It deliberately excludes wall-clock timestamps and canary tallies so a
// recalibrated bank's bytes are a pure function of the training seed chain.
type Provenance struct {
	// Parent is the generation this bank was warm-started from.
	Parent int `json:"parent"`
	// Trigger is what started the retrain: "manual", or "drift:" plus the
	// detector's reason.
	Trigger string `json:"trigger,omitempty"`
	// TrainSamples and HoldoutSamples count the recalibration campaign's
	// split.
	TrainSamples   int `json:"train_samples"`
	HoldoutSamples int `json:"holdout_samples"`
	// CandidateErr and LiveErr are the holdout median relative errors of
	// the candidate and the then-live bank; Margin is the relative
	// improvement the candidate had to clear.
	CandidateErr float64 `json:"candidate_err"`
	LiveErr      float64 `json:"live_err"`
	Margin       float64 `json:"margin"`
}

// Bank is a trained predictor bank plus its platform metadata. Banks are
// safe for concurrent use: prediction allocates only its result slice and
// the per-target values behind it.
type Bank struct {
	bank *core.Bank
	// needs[i] is the event set of bank.Predictors()[i]: what a rate
	// vector must carry for predictorFor to pick it.
	needs []pmu.Mask
	// gapPairs lists, in canonical configuration order, where each target
	// that both the richest and the most-reduced predictor model sits in
	// their TargetNames — what disagreement walks. Empty for
	// single-predictor banks.
	gapPairs [][2]int
	meta     Meta
}

// predictBuf is the working memory of one predictPMU call and the
// disagreement that may follow it. The serving path keeps one in its pooled
// request scratch; the zero value is ready to use.
type predictBuf struct {
	pred   *core.Predictor // the predictor the last predictPMU ran
	vals   []float64       // its per-target IPCs, in pred.TargetNames order
	ranked []Prediction
	// rich and red hold the richest and most-reduced predictors' values
	// when disagreement has to evaluate them itself.
	rich, red []float64
}

// newBank wraps a trained core bank, deriving the per-predictor event sets.
func newBank(cb *core.Bank, meta Meta) *Bank {
	preds := cb.Predictors()
	b := &Bank{bank: cb}
	for _, p := range preds {
		names := make([]string, 0, p.NumEvents())
		for _, e := range p.Events() {
			names = append(names, e.String())
		}
		meta.EventSets = append(meta.EventSets, names)
		b.needs = append(b.needs, pmu.MaskOf(p.Events()))
	}
	b.meta = meta
	if len(preds) > 1 {
		rich, red := preds[0].TargetNames(), preds[len(preds)-1].TargetNames()
		for _, cfg := range meta.Configs {
			i, okRich := slices.BinarySearch(rich, cfg)
			j, okRed := slices.BinarySearch(red, cfg)
			if okRich && okRed {
				b.gapPairs = append(b.gapPairs, [2]int{i, j})
			}
		}
	}
	return b
}

// Meta returns the bank's self-describing header.
func (b *Bank) Meta() Meta { return b.meta }

// Select returns the feature event names of the richest predictor whose
// counter rotation fits within maxRounds sampling timesteps on a PMU that
// can program width events simultaneously — the paper's reduced-event-set
// fallback, exposed so callers can plan their sampling.
func (b *Bank) Select(maxRounds, width int) []string {
	p := b.bank.Select(maxRounds, width)
	names := make([]string, 0, p.NumEvents())
	for _, e := range p.Events() {
		names = append(names, e.String())
	}
	return names
}

// Predict maps observed rates to ranked configuration predictions, best
// first. The richest predictor whose feature events are all present in
// rates is used — a client that sampled only a reduced event set (see
// Select) is served by the matching reduced predictor, the paper's
// short-iteration fallback. When no predictor is fully covered the richest
// one runs with absent events reading zero (the model's documented
// treatment of unmeasured features). Every target configuration gets a
// predicted IPC, and when rates carry an "IPC" entry the sampling
// configuration joins the ranking with its directly observed IPC (marked
// Observed) — exactly the comparison the runtime's decision step makes.
// Rates are refused as /v1/predict refuses them: an unknown mnemonic, a
// rate that is not a finite number, or "IPC" beside its mnemonic. Rates so
// extreme that a model's arithmetic overflows give an error, not a ranking
// with a non-finite IPC in it.
func (b *Bank) Predict(ctx context.Context, rates Rates) ([]Prediction, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pr, err := rates.toPMU()
	if err != nil {
		return nil, err
	}
	var buf predictBuf // fresh: the ranking is the caller's to keep
	ranked := b.predictPMU(&pr, &buf)
	if err := nonFinite(ranked); err != nil {
		return nil, err
	}
	return ranked, nil
}

// nonFinite reports the first prediction in ranked whose IPC is NaN or
// infinite. The ranking cannot order a NaN, so where one lands says nothing:
// every entry is checked.
func nonFinite(ranked []Prediction) error {
	for _, p := range ranked {
		if math.IsNaN(p.IPC) || math.IsInf(p.IPC, 0) {
			return fmt.Errorf("actor: configuration %q predicts a non-finite IPC (%v)", p.Config, p.IPC)
		}
	}
	return nil
}

// predictPMU is Predict past mnemonic resolution: rank every target
// configuration for already-resolved event rates. The serving fast path
// calls this directly with the rate vector its decoder filled and a pooled
// buf, so a request allocates nothing for the ranking. The returned slice
// is buf.ranked, valid until buf's next use.
func (b *Bank) predictPMU(pr *pmu.Rates, buf *predictBuf) []Prediction {
	pred := b.predictorFor(pr)
	buf.pred = pred
	buf.vals = pred.PredictInto(buf.vals, pr)
	names := pred.TargetNames()
	out := slices.Grow(buf.ranked[:0], len(names)+1)
	for i, name := range names {
		out = append(out, Prediction{Config: name, IPC: buf.vals[i]})
	}
	if obs, ok := pr.Get(pmu.Instructions); ok {
		out = append(out, Prediction{Config: b.meta.SampleConfig, IPC: obs, Observed: true})
	}
	rankPredictions(out)
	buf.ranked = out
	return out
}

// predictorFor returns the richest predictor whose every feature event is
// present in pr, falling back to the richest predictor overall. Predictors
// are ordered by descending event count, so the first covered one wins.
func (b *Bank) predictorFor(pr *pmu.Rates) *core.Predictor {
	preds := b.bank.Predictors()
	for i, need := range b.needs {
		if pr.Has&need == need {
			return preds[i]
		}
	}
	return preds[0]
}

// disagreement is the label-free prediction-error proxy the recalibration
// observer records per request: the mean relative gap between the richest
// and the most-reduced predictor's IPC predictions across the target
// configurations. Live traffic carries no ground-truth IPC for the target
// configs, but the two predictors were trained on the same campaign — when
// traffic drifts off that campaign's distribution their extrapolations
// diverge, so the gap rises with model staleness. Zero for single-predictor
// banks. Deterministic: configs are walked in canonical meta order.
//
// buf is the one predictPMU has just filled for the same rates: whichever
// of the two predictors it ran is not evaluated again.
func (b *Bank) disagreement(pr *pmu.Rates, buf *predictBuf) float64 {
	if len(b.gapPairs) == 0 {
		return 0
	}
	preds := b.bank.Predictors()
	rich, red := buf.vals, buf.vals
	if p := preds[0]; p != buf.pred {
		buf.rich = p.PredictInto(buf.rich, pr)
		rich = buf.rich
	}
	if p := preds[len(preds)-1]; p != buf.pred {
		buf.red = p.PredictInto(buf.red, pr)
		red = buf.red
	}
	var sum float64
	for _, at := range b.gapPairs {
		r, d := rich[at[0]], red[at[1]]
		den := math.Abs(r)
		if den < 1e-9 {
			den = 1e-9
		}
		sum += math.Abs(r-d) / den
	}
	return sum / float64(len(b.gapPairs))
}

// BestConfig returns the single best configuration for the observed rates:
// the top entry of Predict's ranking.
func (b *Bank) BestConfig(ctx context.Context, rates Rates) (Prediction, error) {
	ranked, err := b.Predict(ctx, rates)
	if err != nil {
		return Prediction{}, err
	}
	if len(ranked) == 0 {
		return Prediction{}, fmt.Errorf("actor: bank produced no predictions")
	}
	return ranked[0], nil
}

// Save writes the bank to path in the versioned serialization format.
func (b *Bank) Save(path string) error {
	data, err := b.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadBank reads a bank written by Save, rejecting files that are not
// banks, banks of unsupported versions, and structurally corrupt banks
// with descriptive errors.
func LoadBank(path string) (*Bank, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b, err := DecodeBank(data)
	if err != nil {
		return nil, fmt.Errorf("actor: loading bank %s: %w", path, err)
	}
	return b, nil
}
