package actor

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/greenhpc/actor/internal/ann"
	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/mlr"
	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/topology"
)

// The bank serialization format is a versioned, self-describing JSON
// envelope: a header (format magic, version, model kind), the topology
// descriptor the bank was trained for, the configuration space, and the
// model weights in their native flat form (one row-major slice per ANN
// layer; the coefficient vector of an MLR model). Floating-point values
// survive the trip exactly — encoding/json emits the shortest decimal that
// round-trips the float64 bit pattern — so a loaded bank's predictions are
// bit-identical to the bank that was saved.

const (
	// bankFormat is the magic the header must carry.
	bankFormat = "actor-bank"
	// BankVersion is the serialization format version this build reads and
	// writes. Readers reject newer versions with a descriptive error
	// instead of misinterpreting fields.
	BankVersion = 1
)

type bankFile struct {
	Format       string          `json:"format"`
	Version      int             `json:"version"`
	Kind         Kind            `json:"kind"`
	Topology     bankTopology    `json:"topology"`
	Seed         int64           `json:"seed"`
	Folds        int             `json:"folds,omitempty"`
	Configs      []string        `json:"configs"`
	SampleConfig string          `json:"sample_config"`
	Generation   int             `json:"generation,omitempty"`
	Provenance   *Provenance     `json:"provenance,omitempty"`
	Predictors   []bankPredictor `json:"predictors"`
}

type bankTopology struct {
	// Desc is the compact descriptor ("" = the paper's quad-core Xeon).
	Desc  string `json:"desc,omitempty"`
	Name  string `json:"name,omitempty"`
	Cores int    `json:"cores,omitempty"`
}

// bankPredictor holds one feature-set's models: exactly one of ANN or MLR
// is populated, mapping target configuration name to model.
type bankPredictor struct {
	Events []string                `json:"events"`
	ANN    map[string]bankEnsemble `json:"ann,omitempty"`
	MLR    map[string][]float64    `json:"mlr,omitempty"`
}

type bankEnsemble struct {
	Scaler      bankScaler `json:"scaler"`
	EstimateMSE float64    `json:"estimate_mse"`
	Nets        []bankNet  `json:"nets"`
}

type bankScaler struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
	YMin float64   `json:"ymin"`
	YMax float64   `json:"ymax"`
}

type bankNet struct {
	Sizes []int `json:"sizes"`
	// Weights is one flat row-major slice per layer: Sizes[l+1] rows of
	// (Sizes[l]+1) columns, last column the unit bias.
	Weights [][]float64 `json:"weights"`
}

// Encode serialises the bank into the versioned format.
func (b *Bank) Encode() ([]byte, error) {
	bf := bankFile{
		Format:  bankFormat,
		Version: BankVersion,
		Kind:    b.meta.Kind,
		Topology: bankTopology{
			Desc:  b.meta.Topology,
			Name:  b.meta.TopologyName,
			Cores: b.meta.Cores,
		},
		Seed:         b.meta.Seed,
		Folds:        b.meta.Folds,
		Configs:      b.meta.Configs,
		SampleConfig: b.meta.SampleConfig,
		Generation:   b.meta.Generation,
		Provenance:   b.meta.Provenance,
	}
	for _, p := range b.bank.Predictors() {
		bp := bankPredictor{}
		for _, e := range p.Events() {
			bp.Events = append(bp.Events, e.String())
		}
		switch pred := p.(type) {
		case *core.ANNPredictor:
			bp.ANN = make(map[string]bankEnsemble, len(pred.Targets()))
			for name, ens := range pred.Targets() {
				be := bankEnsemble{
					Scaler: bankScaler{
						Mean: ens.Scaler.Mean,
						Std:  ens.Scaler.Std,
						YMin: ens.Scaler.YMin,
						YMax: ens.Scaler.YMax,
					},
					EstimateMSE: ens.EstimateMSE,
				}
				for _, net := range ens.Nets {
					be.Nets = append(be.Nets, bankNet{Sizes: net.Sizes, Weights: net.FlatWeights()})
				}
				bp.ANN[name] = be
			}
		case *core.MLRPredictor:
			bp.MLR = make(map[string][]float64, len(pred.Targets()))
			for name, m := range pred.Targets() {
				bp.MLR[name] = m.Coef
			}
		default:
			return nil, fmt.Errorf("actor: cannot serialise predictor type %T", p)
		}
		bf.Predictors = append(bf.Predictors, bp)
	}
	return json.MarshalIndent(&bf, "", " ")
}

// probePredictor evaluates a freshly decoded predictor on the all-zero rate
// vector. Models that cannot produce a finite IPC even there — overflowing
// weights, a vanishing std — would answer every request with a 500, so the
// bank is refused at load instead.
func probePredictor(p core.Predictor) error {
	for i, ipc := range p.PredictInto(nil, pmu.Rates{}) {
		if math.IsNaN(ipc) || math.IsInf(ipc, 0) {
			return fmt.Errorf("target %q predicts a non-finite IPC (%v) for the all-zero rate vector", p.TargetNames()[i], ipc)
		}
	}
	return nil
}

// DecodeBank parses data written by Encode, validating the header, the
// topology descriptor and every model's shape before constructing the live
// bank.
func DecodeBank(data []byte) (*Bank, error) {
	var bf bankFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("not a bank file: %w", err)
	}
	if bf.Format != bankFormat {
		return nil, fmt.Errorf("not an ACTOR bank (format %q, want %q)", bf.Format, bankFormat)
	}
	if bf.Version < 1 {
		return nil, fmt.Errorf("bank has no valid format version (got %d)", bf.Version)
	}
	if bf.Version > BankVersion {
		return nil, fmt.Errorf("bank format version %d is newer than the supported version %d; rebuild the bank or upgrade this binary", bf.Version, BankVersion)
	}
	if bf.Topology.Desc != "" {
		if _, err := topology.ParseDesc(bf.Topology.Desc); err != nil {
			return nil, fmt.Errorf("bank topology descriptor: %w", err)
		}
	}
	if len(bf.Configs) == 0 {
		return nil, fmt.Errorf("bank lists no configurations")
	}
	sampleOK := false
	for _, c := range bf.Configs {
		if c == bf.SampleConfig {
			sampleOK = true
			break
		}
	}
	if !sampleOK {
		return nil, fmt.Errorf("bank sampling configuration %q is not in its configuration space %v", bf.SampleConfig, bf.Configs)
	}
	if len(bf.Predictors) == 0 {
		return nil, fmt.Errorf("bank holds no predictors")
	}

	var preds []core.Predictor
	kind := bf.Kind
	for i, bp := range bf.Predictors {
		events := make([]pmu.Event, 0, len(bp.Events))
		for _, name := range bp.Events {
			e, ok := pmu.EventByName(name)
			if !ok {
				return nil, fmt.Errorf("predictor %d: unknown event %q", i, name)
			}
			events = append(events, e)
		}
		switch {
		case len(bp.ANN) > 0 && len(bp.MLR) > 0:
			return nil, fmt.Errorf("predictor %d carries both ANN and MLR models", i)
		case len(bp.ANN) > 0:
			if kind == "" {
				kind = KindANN
			}
			targets := make(map[string]*ann.Ensemble, len(bp.ANN))
			for name, be := range bp.ANN {
				nets := make([]*ann.Network, len(be.Nets))
				for ni, bn := range be.Nets {
					net, err := ann.NewNetworkFromFlat(bn.Sizes, bn.Weights)
					if err != nil {
						return nil, fmt.Errorf("predictor %d target %q net %d: %w", i, name, ni, err)
					}
					nets[ni] = net
				}
				// NewEnsemble rejects an empty ensemble and a scaler that
				// does not fit the members or cannot normalise: mismatched
				// lengths, a non-positive std, an inverted target range.
				ens, err := ann.NewEnsemble(nets, &ann.Scaler{
					Mean: be.Scaler.Mean,
					Std:  be.Scaler.Std,
					YMin: be.Scaler.YMin,
					YMax: be.Scaler.YMax,
				}, be.EstimateMSE)
				if err != nil {
					return nil, fmt.Errorf("predictor %d target %q: %w", i, name, err)
				}
				targets[name] = ens
			}
			p, err := core.NewANNPredictor(events, targets)
			if err == nil {
				err = probePredictor(p)
			}
			if err != nil {
				return nil, fmt.Errorf("predictor %d: %w", i, err)
			}
			preds = append(preds, p)
		case len(bp.MLR) > 0:
			if kind == "" {
				kind = KindMLR
			}
			targets := make(map[string]*mlr.Model, len(bp.MLR))
			for name, coef := range bp.MLR {
				m, err := mlr.NewModel(coef)
				if err != nil {
					return nil, fmt.Errorf("predictor %d target %q: %w", i, name, err)
				}
				targets[name] = m
			}
			p, err := core.NewMLRPredictor(events, targets)
			if err == nil {
				err = probePredictor(p)
			}
			if err != nil {
				return nil, fmt.Errorf("predictor %d: %w", i, err)
			}
			preds = append(preds, p)
		default:
			return nil, fmt.Errorf("predictor %d holds no models", i)
		}
	}
	cb, err := core.NewBank(preds...)
	if err != nil {
		return nil, err
	}
	return newBank(cb, Meta{
		Version:      bf.Version,
		Kind:         kind,
		Topology:     bf.Topology.Desc,
		TopologyName: bf.Topology.Name,
		Cores:        bf.Topology.Cores,
		Seed:         bf.Seed,
		Folds:        bf.Folds,
		Configs:      bf.Configs,
		SampleConfig: bf.SampleConfig,
		Generation:   bf.Generation,
		Provenance:   bf.Provenance,
	}), nil
}
