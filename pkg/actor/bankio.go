package actor

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"

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
		// Both maps start empty; omitempty drops the family not present.
		bp := bankPredictor{ANN: map[string]bankEnsemble{}, MLR: map[string][]float64{}}
		for _, e := range p.Events() {
			bp.Events = append(bp.Events, e.String())
		}
		for i, m := range p.Models() {
			name := p.TargetNames()[i]
			switch m := m.(type) {
			case *ann.Ensemble:
				be := bankEnsemble{
					Scaler: bankScaler{
						Mean: m.Scaler.Mean,
						Std:  m.Scaler.Std,
						YMin: m.Scaler.YMin,
						YMax: m.Scaler.YMax,
					},
					EstimateMSE: m.EstimateMSE,
				}
				for _, net := range m.Nets {
					be.Nets = append(be.Nets, bankNet{Sizes: net.Sizes, Weights: net.FlatWeights()})
				}
				bp.ANN[name] = be
			case *mlr.Model:
				bp.MLR[name] = m.Coef
			default:
				return nil, fmt.Errorf("actor: cannot serialise a %T model", m)
			}
		}
		bf.Predictors = append(bf.Predictors, bp)
	}
	return json.MarshalIndent(&bf, "", " ")
}

// probePredictor evaluates a freshly decoded predictor on the all-zero rate
// vector. Models that cannot produce a finite IPC even there — overflowing
// weights, a vanishing std — would answer every request with a 500, so the
// bank is refused at load instead.
func probePredictor(p *core.Predictor) error {
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
	if !slices.Contains(bf.Configs, bf.SampleConfig) {
		return nil, fmt.Errorf("bank sampling configuration %q is not in its configuration space %v", bf.SampleConfig, bf.Configs)
	}
	if len(bf.Predictors) == 0 {
		return nil, fmt.Errorf("bank holds no predictors")
	}

	kind := bf.Kind
	if kind != "" && kind != KindANN && kind != KindMLR {
		return nil, fmt.Errorf("bank kind %q is neither %q nor %q", kind, KindANN, KindMLR)
	}
	var preds []*core.Predictor
	for i, bp := range bf.Predictors {
		events := make([]pmu.Event, 0, len(bp.Events))
		for _, name := range bp.Events {
			e, ok := pmu.EventByName(name)
			if !ok {
				return nil, fmt.Errorf("predictor %d: unknown event %q", i, name)
			}
			events = append(events, e)
		}
		var family Kind
		switch {
		case len(bp.ANN) > 0 && len(bp.MLR) > 0:
			return nil, fmt.Errorf("predictor %d carries both ANN and MLR models", i)
		case len(bp.ANN) > 0:
			family = KindANN
		case len(bp.MLR) > 0:
			family = KindMLR
		default:
			return nil, fmt.Errorf("predictor %d holds no models", i)
		}
		if kind == "" {
			kind = family // inferred from the first predictor
		}
		if family != kind {
			return nil, fmt.Errorf("predictor %d holds %s models in a bank of kind %q", i, family, kind)
		}
		// Targets are decoded in name order, so which bad model an error
		// names never depends on map iteration order. A target outside the
		// configuration space would be recommended as a configuration the
		// bank was never trained to run.
		var names []string
		if family == KindANN {
			names = slices.Sorted(maps.Keys(bp.ANN))
		} else {
			names = slices.Sorted(maps.Keys(bp.MLR))
		}
		for _, name := range names {
			if !slices.Contains(bf.Configs, name) {
				return nil, fmt.Errorf("predictor %d target %q is not in the bank's configuration space %v", i, name, bf.Configs)
			}
		}
		var models []core.Model
		if family == KindANN {
			for _, name := range names {
				be := bp.ANN[name]
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
				models = append(models, ens)
			}
		} else {
			for _, name := range names {
				m, err := mlr.NewModel(bp.MLR[name])
				if err != nil {
					return nil, fmt.Errorf("predictor %d target %q: %w", i, name, err)
				}
				models = append(models, m)
			}
		}
		p, err := core.NewPredictor(events, names, models)
		if err == nil {
			err = probePredictor(p)
		}
		if err != nil {
			return nil, fmt.Errorf("predictor %d: %w", i, err)
		}
		preds = append(preds, p)
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
