package actor

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"

	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/dataset"
	"github.com/greenhpc/actor/internal/metrics"
	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/parallel"
	"github.com/greenhpc/actor/internal/recal"
)

// This file is the serving half of recalibration: the Recalibrator runs one
// synchronous control path. Trigger collects a fresh characterisation
// campaign, warm-starts a candidate off the live bank, validates both on a
// held-out split and either promotes the candidate through Server.SwapBank
// or rejects it; Rollback undoes a promotion. Nothing on the predict path
// feeds or reads it.
//
// Determinism is the design invariant. A retrain's sample campaign is
// collected from the engine's simulated platform under a noise stream
// seeded purely by the (bank seed, generation, attempt) chain — never by
// wall clock — so the candidate bank's bytes, the holdout errors
// and therefore the promote/reject decision are byte-for-byte reproducible
// for a given live bank, at any GOMAXPROCS.

// recalBlend is the live/refit coefficient blend of MLR recalibration:
// new = blend*live + (1-blend)*refit. Averaging two independently noisy
// characterisation campaigns gives the blend a lower expected error than
// either endpoint on a stationary platform.
const recalBlend = 0.5

// maxRecalHistory bounds the prior generations retained for rollback:
// repeated triggers can promote indefinitely, and each retained bank holds
// model weights plus an encoded /v1/bank body. Oldest generations are
// dropped first; rollback walks the chain newest-first, so the bound only
// limits how far back a rollback sequence can reach.
const maxRecalHistory = 32

// maxRecalEvents bounds the retained event log; older events are dropped.
const maxRecalEvents = 64

// RecalConfig tunes recalibration. The zero value promotes any candidate
// at least as good as the live bank.
type RecalConfig struct {
	// Margin is the relative holdout improvement a candidate must clear:
	// it is promoted iff candidateErr <= liveErr*(1-Margin). 0 accepts any
	// candidate at least as good as the live bank.
	Margin float64
}

// RecalOutcome is what one retrain attempt decided, returned by Trigger and
// POST /v1/recal/trigger.
type RecalOutcome struct {
	// Outcome is "promoted" or "rejected".
	Outcome string `json:"outcome"`
	// Generation is the candidate generation the attempt produced.
	Generation int `json:"generation"`
	// Trigger is what started the attempt: always "manual".
	Trigger string `json:"trigger"`
	// CandidateErr and LiveErr are the holdout median relative errors the
	// decision compared.
	CandidateErr float64 `json:"candidate_err"`
	LiveErr      float64 `json:"live_err"`
}

// Recalibrator drives recalibration for one Server: on each Trigger it
// retrains a candidate warm-started from the live bank, validates it on a
// held-out split and promotes it through Server.SwapBank or rejects it,
// with instant rollback to any retained prior generation.
type Recalibrator struct {
	srv *Server
	cfg RecalConfig

	// mu serialises the control plane: Trigger, Rollback, Status.
	mu      sync.Mutex
	attempt int // lifetime retrain attempts, part of the gen-seed chain
	history []*Bank
	events  []recal.Event // oldest first, at most maxRecalEvents
}

// EnableRecalibration switches recalibration on: the /v1/recal/* admin
// routes come alive. Call once; a second call fails, and so does a
// non-finite Margin. A negative Margin clamps to 0. Nothing retrains until
// the caller asks: Trigger (POST /v1/recal/trigger) runs one attempt on the
// caller's goroutine.
func (s *Server) EnableRecalibration(cfg RecalConfig) (*Recalibrator, error) {
	// A NaN would pass the clamp below and then fail every comparison: no
	// candidate would clear a NaN margin.
	if math.IsNaN(cfg.Margin) || math.IsInf(cfg.Margin, 0) {
		return nil, fmt.Errorf("actor: recalibration margin %v is not finite", cfg.Margin)
	}
	cfg.Margin = max(cfg.Margin, 0)
	r := &Recalibrator{srv: s, cfg: cfg}
	if !s.recal.CompareAndSwap(nil, r) {
		return nil, fmt.Errorf("actor: recalibration already enabled")
	}
	return r, nil
}

// Trigger runs one retrain attempt now, on the caller's goroutine: collect
// a fresh characterisation campaign under the generation seed, warm-start a
// candidate from the live bank, validate both on the held-out split, and
// promote or reject. A retrain already running finishes first (Trigger
// waits on the control lock). An error is an infrastructure failure, not a
// rejection; it is recorded and the live bank keeps serving.
func (r *Recalibrator) Trigger(ctx context.Context) (RecalOutcome, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out, err := r.retrainLocked(ctx)
	if err != nil {
		r.recordLocked(recal.Event{
			Generation: out.Generation,
			Kind:       "rejected",
			Trigger:    out.Trigger,
			Detail:     err.Error(),
		})
	}
	return out, err
}

// recordLocked appends ev to the bounded event log. Caller holds r.mu.
func (r *Recalibrator) recordLocked(ev recal.Event) {
	if len(r.events) == maxRecalEvents {
		copy(r.events, r.events[1:])
		r.events = r.events[:maxRecalEvents-1]
	}
	r.events = append(r.events, ev)
}

// retrainLocked is Trigger's attempt; it records its own rejection or
// promotion, and leaves an error to Trigger. Caller holds r.mu.
func (r *Recalibrator) retrainLocked(ctx context.Context) (RecalOutcome, error) {
	eng, live := r.srv.eng, r.srv.Bank()
	gen := live.meta.Generation + 1
	r.attempt++
	out := RecalOutcome{Generation: gen, Trigger: "manual"}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	// The attempt counter joins the seed chain so a rejected candidate is
	// not deterministically re-derived (and re-rejected) forever: the next
	// attempt at the same generation sees a fresh campaign.
	// The campaign's noise forks from noise.New(genSeed), so the samples —
	// and everything trained from them — are a pure function of the seed
	// chain, independent of traffic, wall clock and GOMAXPROCS.
	genSeed := parallel.SeedFor(live.meta.Seed, fmt.Sprintf("recal/gen/%d/attempt/%d", gen, r.attempt))
	samples, err := eng.collectCampaign(noise.New(genSeed))
	if err != nil {
		return out, err
	}
	// Deterministic holdout split: every fourth sample validates, the rest
	// train. Order is the collector's canonical (bench, phase, repetition)
	// order, so the split is identical across runs and GOMAXPROCS.
	var train, hold []dataset.PhaseSample
	for i := range samples {
		if i%4 == 3 {
			hold = append(hold, samples[i])
		} else {
			train = append(train, samples[i])
		}
	}
	targets := eng.suite.Targets()
	var cb *core.Bank
	switch live.meta.Kind {
	case KindANN:
		cfg := eng.suite.Opts.ANN
		cfg.Seed = genSeed
		cb, err = core.FineTuneANNBank(live.bank, train, targets, cfg)
	case KindMLR:
		cb, err = core.RefitMLRBank(live.bank, train, targets, mlrRidge, recalBlend)
	default:
		err = fmt.Errorf("actor: cannot recalibrate bank kind %q", live.meta.Kind)
	}
	if err != nil {
		return out, err
	}

	out.CandidateErr = medianRelErr(cb.Predictors()[0], hold)
	out.LiveErr = medianRelErr(live.bank.Predictors()[0], hold)
	ev := recal.Event{
		Generation:   gen,
		Trigger:      out.Trigger,
		CandidateErr: out.CandidateErr,
		LiveErr:      out.LiveErr,
	}
	if !(out.CandidateErr <= out.LiveErr*(1-r.cfg.Margin)) {
		out.Outcome, ev.Kind = "rejected", "rejected"
		ev.Detail = fmt.Sprintf("candidate did not clear margin %v", r.cfg.Margin)
		r.recordLocked(ev)
		return out, nil
	}

	meta := live.meta
	meta.Generation = gen
	meta.Provenance = &Provenance{
		Parent:         live.meta.Generation,
		Trigger:        out.Trigger,
		TrainSamples:   len(train),
		HoldoutSamples: len(hold),
		CandidateErr:   out.CandidateErr,
		LiveErr:        out.LiveErr,
		Margin:         r.cfg.Margin,
	}
	meta.EventSets = nil // newBank re-derives them from the predictors
	if err := r.srv.SwapBank(newBank(cb, meta)); err != nil {
		return out, fmt.Errorf("swap failed: %w", err)
	}
	r.history = append(r.history, live)
	if len(r.history) > maxRecalHistory {
		copy(r.history, r.history[1:])
		r.history[len(r.history)-1] = nil
		r.history = r.history[:len(r.history)-1]
	}
	out.Outcome, ev.Kind = "promoted", "promoted"
	r.recordLocked(ev)
	return out, nil
}

// Rollback restores the previous bank generation: it swaps the most
// recently retained generation back in, and the restored /v1/bank body is
// byte-identical to what that generation served before, because bank
// encoding is a pure function of the bank.
func (r *Recalibrator) Rollback() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.history) == 0 {
		return fmt.Errorf("actor: no previous bank generation to roll back to")
	}
	prev := r.history[len(r.history)-1]
	if err := r.srv.SwapBank(prev); err != nil {
		return err
	}
	r.history = r.history[:len(r.history)-1]
	r.recordLocked(recal.Event{
		Generation: prev.meta.Generation,
		Kind:       "rollback",
	})
	return nil
}

// Status snapshots the loop for GET /v1/recal/status.
func (r *Recalibrator) Status() recal.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return recal.Snapshot{
		Enabled:    true,
		Generation: r.srv.Bank().meta.Generation,
		History:    len(r.history),
		Events:     append([]recal.Event(nil), r.events...),
	}
}

// medianRelErr scores one predictor on held-out samples: the median of
// |predicted - measured| / |measured| over every (sample, target) pair with
// a measured IPC, or +Inf when there is none.
func medianRelErr(p *core.Predictor, hold []dataset.PhaseSample) float64 {
	errs := make([]float64, 0, len(hold)*len(p.TargetNames()))
	var vals []float64
	for i := range hold {
		vals = p.PredictInto(vals, &hold[i].Rates)
		for j, t := range p.TargetNames() {
			m, ok := hold[i].MeasuredIPC[t]
			if !ok {
				continue
			}
			den := math.Abs(m)
			if den < 1e-9 {
				den = 1e-9
			}
			errs = append(errs, math.Abs(vals[j]-m)/den)
		}
	}
	med, err := metrics.Median(errs)
	if err != nil {
		return math.Inf(1) // no measured IPC to score against
	}
	return med
}

// --- admin endpoints ---

// recalEnabled loads the recalibrator or answers 503.
func (s *Server) recalEnabled(w http.ResponseWriter) *Recalibrator {
	rec := s.recal.Load()
	if rec == nil {
		writeError(w, http.StatusServiceUnavailable, "recalibration not enabled")
	}
	return rec
}

func (s *Server) handleRecalStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	rec := s.recalEnabled(w)
	if rec == nil {
		return
	}
	writeCold(w, http.StatusOK, rec.Status())
}

func (s *Server) handleRecalTrigger(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	rec := s.recalEnabled(w)
	if rec == nil {
		return
	}
	out, err := rec.Trigger(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeCold(w, http.StatusOK, out)
}

func (s *Server) handleRecalRollback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	rec := s.recalEnabled(w)
	if rec == nil {
		return
	}
	if err := rec.Rollback(); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeCold(w, http.StatusOK, rec.Status())
}
