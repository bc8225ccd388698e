package actor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/dataset"
	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/parallel"
	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/recal"
)

// This file is the serving half of online recalibration: the Recalibrator
// owns the control loop — canary admission, the event log, warm-start
// retraining off the live bank, holdout validation and the atomic
// zero-downtime bank swap in Server — and reads internal/recal's
// traffic-facing machinery (observation store, drift detector).
//
// Determinism is the design invariant. A retrain's sample campaign is
// collected from the engine's simulated platform under a noise stream
// seeded purely by the (bank seed, generation, attempt) chain — never by
// traffic or wall clock — so the candidate bank's bytes, the holdout errors
// and therefore the promote/reject decision are byte-for-byte reproducible
// for a given live bank, at any GOMAXPROCS.

// recalBlend is the live/refit coefficient blend of MLR recalibration:
// new = blend*live + (1-blend)*refit. Averaging two independently noisy
// characterisation campaigns gives the blend a lower expected error than
// either endpoint on a stationary platform.
const recalBlend = 0.5

// maxRecalHistory bounds the prior generations retained for rollback:
// sustained drift can promote indefinitely, and each retained bank holds
// model weights plus an encoded /v1/bank body. Oldest generations are
// dropped first; rollback walks the chain newest-first, so the bound only
// limits how far back a rollback sequence can reach.
const maxRecalHistory = 32

// canaryMin is the number of shadow-scored requests a canary needs before
// auto-promotion.
const canaryMin = 64

// maxRecalEvents bounds the retained event log; older events are dropped.
const maxRecalEvents = 64

// RecalConfig tunes the recalibration loop. The zero value promotes any
// candidate at least as good as the live bank, with no canary.
type RecalConfig struct {
	// Margin is the relative holdout improvement a candidate must clear:
	// it is promoted iff candidateErr <= liveErr*(1-Margin). 0 accepts any
	// candidate at least as good as the live bank.
	Margin float64
	// CanaryFrac, when > 0, holds a validated candidate in canary mode
	// first: that fraction of live predict traffic is shadow-scored on the
	// candidate, and promotion waits until 64 requests scored with zero
	// failures. 0 promotes immediately.
	CanaryFrac float64
}

// RecalOutcome is what one retrain attempt decided, returned by Trigger and
// POST /v1/recal/trigger.
type RecalOutcome struct {
	// Outcome is "promoted", "rejected" or "canary".
	Outcome string `json:"outcome"`
	// Generation is the candidate generation the attempt produced.
	Generation int `json:"generation"`
	// Trigger is what started the attempt.
	Trigger string `json:"trigger"`
	// CandidateErr and LiveErr are the holdout median relative errors the
	// decision compared.
	CandidateErr float64 `json:"candidate_err"`
	LiveErr      float64 `json:"live_err"`
}

// errRecalBusy is returned by Trigger while a canary is in flight; the
// admin handler maps it to 409.
var errRecalBusy = errors.New("actor: recalibration busy")

// Recalibrator drives online recalibration for one Server: it ingests
// predict-path observations, watches for drift, retrains shadow candidates
// warm-started from the live bank, validates them on a held-out replay
// window, and promotes survivors through Server.SwapBank — optionally via
// a canary phase — with instant rollback to any retained prior generation.
type Recalibrator struct {
	srv *Server
	eng *Engine
	cfg RecalConfig

	store *recal.Store

	// candidate is the validated bank shadow-scored during canary mode;
	// the loop is in canary exactly while it is set. Atomic because the
	// predict hot path reads it.
	candidate atomic.Pointer[Bank]
	// admitBelow is the canary admission threshold over the full uint64
	// range (0 = no canary); salt seeds the admission hash so different
	// banks sample different request subsequences deterministically.
	admitBelow atomic.Uint64
	salt       uint64
	// scored and failed count canary shadow predictions since the canary
	// began.
	scored, failed atomic.Uint64

	// mu serialises the control plane: Tick, Trigger, Promote, Rollback,
	// Status.
	mu      sync.Mutex
	attempt int // lifetime retrain attempts, part of the gen-seed chain
	history []*Bank
	events  []recal.Event // oldest first, at most maxRecalEvents
}

// EnableRecalibration switches the server's online recalibration loop on:
// predict traffic starts feeding the observation store and the /v1/recal/*
// admin routes come alive. Call once, before serving traffic; a second call
// fails, and so does a non-finite Margin or CanaryFrac. A negative Margin
// clamps to 0 and CanaryFrac clamps to [0, 1]. The caller drives the loop
// through Tick (actord calls it on a ticker) or Trigger.
func (s *Server) EnableRecalibration(cfg RecalConfig) (*Recalibrator, error) {
	// A NaN would pass every clamp below and then fail every comparison:
	// no candidate would clear a NaN margin, and a NaN canary fraction
	// would skip the canary the caller asked for.
	if math.IsNaN(cfg.Margin) || math.IsInf(cfg.Margin, 0) {
		return nil, fmt.Errorf("actor: recalibration margin %v is not finite", cfg.Margin)
	}
	if math.IsNaN(cfg.CanaryFrac) || math.IsInf(cfg.CanaryFrac, 0) {
		return nil, fmt.Errorf("actor: canary fraction %v is not finite", cfg.CanaryFrac)
	}
	cfg.Margin = max(cfg.Margin, 0)
	cfg.CanaryFrac = min(max(cfg.CanaryFrac, 0), 1)
	r := &Recalibrator{
		srv:   s,
		eng:   s.eng,
		cfg:   cfg,
		store: recal.NewStore(recal.StoreConfig{}),
		salt:  splitmix64(uint64(parallel.SeedFor(s.Bank().Meta().Seed, "recal/canary"))),
	}
	if !s.recal.CompareAndSwap(nil, r) {
		return nil, fmt.Errorf("actor: recalibration already enabled")
	}
	return r, nil
}

// observe ingests one fast-path predict request: phase hash, observed IPC
// and the prediction-error proxy. Allocation-free — it runs on the memo-hit
// path — and, when a canary is live and admission says so, shadow-scores
// the candidate on the same rates.
func (r *Recalibrator) observe(sc *predictScratch, phase []byte, obsErr float64) {
	o := recal.Obs{Phase: recal.HashPhase(phase), Err: obsErr}
	o.IPC, o.HasIPC = sc.rates.Get(pmu.Instructions)
	if r.admit(r.store.Observe(o)) {
		r.shadowScore(sc)
	}
}

// admit reports whether the observation with lifetime sequence number seq
// is shadow-scored on the canary candidate. Lock-free — this runs on the
// predict hot path — and a pure function of (seq, salt, threshold), so a
// seeded serial trace always samples the same requests.
func (r *Recalibrator) admit(seq uint64) bool {
	t := r.admitBelow.Load()
	return t != 0 && splitmix64(seq^r.salt) < t
}

// armCanary opens admission to frac of the observations (frac in [0, 1])
// and zeroes the shadow-scoring tallies.
func (r *Recalibrator) armCanary(frac float64) {
	r.scored.Store(0)
	r.failed.Store(0)
	t := uint64(math.MaxUint64)
	if frac < 1 {
		t = uint64(frac * float64(math.MaxUint64))
	}
	r.admitBelow.Store(t)
}

// splitmix64 is the hash behind canary admission: one multiply-xor-shift
// pipeline with full 64-bit avalanche, deterministic and allocation-free.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shadowScore runs the canary candidate on a live request's rates, off the
// response path: the client got the live bank's answer; this only tallies
// whether the candidate would have produced a sane one.
func (r *Recalibrator) shadowScore(sc *predictScratch) {
	cand := r.candidate.Load()
	if cand == nil {
		return
	}
	if ranked := cand.predictPMU(&sc.rates, &sc.rank); len(ranked) == 0 || nonFinite(ranked) != nil {
		r.failed.Add(1)
	}
	r.scored.Add(1)
}

// Tick runs one control-loop step: during a canary it checks completion or
// failure; when idle it evaluates drift and retrains on a trip. Retraining
// is synchronous within Tick (off the request path — Tick runs in the
// caller's goroutine; actord drives it on a ticker).
func (r *Recalibrator) Tick(ctx context.Context) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.candidate.Load() != nil {
		scored, failed := r.scored.Load(), r.failed.Load()
		if failed > 0 {
			r.abortCanaryLocked(fmt.Sprintf("%d/%d shadow predictions failed", failed, scored))
			return
		}
		if scored >= canaryMin {
			_ = r.promoteLocked()
		}
		return
	}
	if v := r.store.CheckDrift(); v.Tripped {
		_, _ = r.retrainLocked(ctx, "drift:"+v.Reason)
	}
}

// Trigger forces a retrain attempt right now, regardless of drift. A
// retrain already running finishes first (Trigger waits on the control
// lock); a canary in flight returns errRecalBusy.
func (r *Recalibrator) Trigger(ctx context.Context) (RecalOutcome, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.candidate.Load() != nil {
		return RecalOutcome{}, fmt.Errorf("%w (canary)", errRecalBusy)
	}
	return r.retrainLocked(ctx, "manual")
}

// recordLocked stamps ev with the store's lifetime observation count and
// appends it to the bounded event log. Caller holds r.mu.
func (r *Recalibrator) recordLocked(ev recal.Event) {
	ev.Seq = r.store.Total()
	if len(r.events) == maxRecalEvents {
		copy(r.events, r.events[1:])
		r.events = r.events[:maxRecalEvents-1]
	}
	r.events = append(r.events, ev)
}

// retrainLocked is one full shadow-retrain attempt: collect a fresh
// characterisation campaign under the generation seed, warm-start a
// candidate from the live bank, validate both on the held-out split, and
// promote, canary or reject. Caller holds r.mu and no canary is in flight.
func (r *Recalibrator) retrainLocked(ctx context.Context, trigger string) (RecalOutcome, error) {
	out, err := r.runRetrain(ctx, trigger)
	if err != nil {
		// Infrastructure failure (not a rejection): record it and re-arm
		// the store so the detector measures against fresh traffic.
		r.recordLocked(recal.Event{
			Generation: out.Generation,
			Kind:       "rejected",
			Trigger:    trigger,
			Detail:     err.Error(),
		})
		r.store.Reset()
	}
	return out, err
}

func (r *Recalibrator) runRetrain(ctx context.Context, trigger string) (RecalOutcome, error) {
	live := r.srv.Bank()
	gen := live.meta.Generation + 1
	r.attempt++
	out := RecalOutcome{Generation: gen, Trigger: trigger}
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
	samples, err := r.eng.collectCampaign(noise.New(genSeed))
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
	targets := r.eng.suite.Targets()
	var cb *core.Bank
	switch live.meta.Kind {
	case KindANN:
		cfg := r.eng.suite.Opts.ANN
		cfg.Seed = genSeed
		cb, err = core.FineTuneANNBank(live.bank, train, targets, cfg)
	case KindMLR:
		cb, err = core.RefitMLRBank(live.bank, train, targets, r.eng.cfg.ridge, recalBlend)
	default:
		err = fmt.Errorf("actor: cannot recalibrate bank kind %q", live.meta.Kind)
	}
	if err != nil {
		return out, err
	}

	out.CandidateErr = medianRelErr(cb.Predictors()[0], hold)
	out.LiveErr = medianRelErr(live.bank.Predictors()[0], hold)
	if !(out.CandidateErr <= out.LiveErr*(1-r.cfg.Margin)) {
		out.Outcome = "rejected"
		r.recordLocked(recal.Event{
			Generation:   gen,
			Kind:         "rejected",
			Trigger:      trigger,
			Detail:       fmt.Sprintf("candidate did not clear margin %v", r.cfg.Margin),
			CandidateErr: out.CandidateErr,
			LiveErr:      out.LiveErr,
		})
		r.store.Reset()
		return out, nil
	}

	meta := live.meta
	meta.Generation = gen
	meta.Provenance = &Provenance{
		Parent:         live.meta.Generation,
		Trigger:        trigger,
		TrainSamples:   len(train),
		HoldoutSamples: len(hold),
		CandidateErr:   out.CandidateErr,
		LiveErr:        out.LiveErr,
		Margin:         r.cfg.Margin,
	}
	meta.EventSets = nil // newBank re-derives them from the predictors
	cand := newBank(cb, meta)

	if r.cfg.CanaryFrac > 0 {
		out.Outcome = "canary"
		r.candidate.Store(cand)
		r.armCanary(r.cfg.CanaryFrac)
		r.recordLocked(recal.Event{
			Generation:   gen,
			Kind:         "canary-begin",
			Trigger:      trigger,
			CandidateErr: out.CandidateErr,
			LiveErr:      out.LiveErr,
		})
		return out, nil
	}
	out.Outcome = "promoted"
	return out, r.installLocked(cand)
}

// installLocked swaps cand in as the live bank, retains the previous bank
// for rollback, re-arms the observation store and records the promotion.
func (r *Recalibrator) installLocked(cand *Bank) error {
	prev := r.srv.Bank()
	if err := r.srv.SwapBank(cand); err != nil {
		r.recordLocked(recal.Event{
			Generation: cand.meta.Generation,
			Kind:       "rejected",
			Detail:     "swap failed: " + err.Error(),
		})
		r.endCanary()
		return err
	}
	r.history = append(r.history, prev)
	if len(r.history) > maxRecalHistory {
		copy(r.history, r.history[1:])
		r.history[len(r.history)-1] = nil
		r.history = r.history[:len(r.history)-1]
	}
	r.endCanary()
	ev := recal.Event{
		Generation: cand.meta.Generation,
		Kind:       "promoted",
	}
	if p := cand.meta.Provenance; p != nil {
		ev.Trigger = p.Trigger
		ev.CandidateErr = p.CandidateErr
		ev.LiveErr = p.LiveErr
	}
	r.recordLocked(ev)
	r.store.Reset()
	return nil
}

// endCanary drops the canary candidate and closes admission.
func (r *Recalibrator) endCanary() {
	r.candidate.Store(nil)
	r.admitBelow.Store(0)
}

// Promote force-completes a canary, installing the candidate immediately.
func (r *Recalibrator) Promote() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoteLocked()
}

func (r *Recalibrator) promoteLocked() error {
	cand := r.candidate.Load()
	if cand == nil {
		return fmt.Errorf("actor: no canary candidate to promote")
	}
	return r.installLocked(cand)
}

// abortCanaryLocked discards the canary candidate without swapping. Caller
// holds r.mu and a canary is in flight.
func (r *Recalibrator) abortCanaryLocked(detail string) {
	gen := r.candidate.Load().meta.Generation
	r.endCanary()
	r.recordLocked(recal.Event{
		Generation: gen,
		Kind:       "canary-abort",
		Detail:     detail,
	})
	r.store.Reset()
}

// Rollback restores the previous bank generation. During a canary it aborts
// the canary instead (nothing was swapped yet); otherwise it swaps the most
// recently retained generation back in — the restored /v1/bank body is
// byte-identical to what that generation served before, because bank
// encoding is a pure function of the bank.
func (r *Recalibrator) Rollback() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.candidate.Load() != nil {
		r.abortCanaryLocked("rollback requested")
		return nil
	}
	if len(r.history) == 0 {
		return fmt.Errorf("actor: no previous bank generation to roll back to")
	}
	prev := r.history[len(r.history)-1]
	if err := r.srv.SwapBank(prev); err != nil {
		return err
	}
	r.history = r.history[:len(r.history)-1]
	r.store.Reset()
	r.recordLocked(recal.Event{
		Generation: prev.meta.Generation,
		Kind:       "rollback",
	})
	return nil
}

// Status snapshots the whole loop for GET /v1/recal/status.
func (r *Recalibrator) Status() recal.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := recal.Snapshot{
		Enabled:    true,
		State:      "idle",
		Generation: r.srv.Bank().meta.Generation,
		History:    len(r.history),
		Observed:   r.store.Total(),
		WindowSeq:  r.store.Seq(),
		Drift:      r.store.CheckDrift(),
		Phases:     r.store.Phases(),
		Events:     append([]recal.Event(nil), r.events...),
	}
	if r.candidate.Load() != nil {
		snap.State = "canary"
		snap.Canary = recal.Canary{
			Frac:   r.cfg.CanaryFrac,
			Scored: r.scored.Load(),
			Failed: r.failed.Load(),
		}
	}
	return snap
}

// medianRelErr scores one predictor on held-out samples: the median of
// |predicted - measured| / |measured| over every (sample, target) pair with
// a measured IPC.
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
	if len(errs) == 0 {
		return math.Inf(1)
	}
	sort.Float64s(errs)
	mid := len(errs) / 2
	if len(errs)%2 == 1 {
		return errs[mid]
	}
	return (errs[mid-1] + errs[mid]) / 2
}

// --- admin endpoints ---

// writeJSONAdmin renders admin responses through encoding/json: these
// endpoints are control-plane, not hot-path, so the stdlib's indented
// encoding (matching the wire emitter's style) is plenty.
func writeJSONAdmin(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		w.Header()["Content-Type"] = headerJSONValue
		w.WriteHeader(code)
		return
	}
	writeBody(w, code, append(body, '\n'))
}

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
		writeBody(w, http.StatusMethodNotAllowed, errUseGETBody)
		return
	}
	rec := s.recalEnabled(w)
	if rec == nil {
		return
	}
	writeJSONAdmin(w, http.StatusOK, rec.Status())
}

func (s *Server) handleRecalTrigger(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeBody(w, http.StatusMethodNotAllowed, errUsePOSTBody)
		return
	}
	rec := s.recalEnabled(w)
	if rec == nil {
		return
	}
	out, err := rec.Trigger(r.Context())
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, errRecalBusy) {
			code = http.StatusConflict
		}
		writeError(w, code, "%v", err)
		return
	}
	writeJSONAdmin(w, http.StatusOK, out)
}

func (s *Server) handleRecalPromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeBody(w, http.StatusMethodNotAllowed, errUsePOSTBody)
		return
	}
	rec := s.recalEnabled(w)
	if rec == nil {
		return
	}
	if err := rec.Promote(); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSONAdmin(w, http.StatusOK, rec.Status())
}

func (s *Server) handleRecalRollback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeBody(w, http.StatusMethodNotAllowed, errUsePOSTBody)
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
	writeJSONAdmin(w, http.StatusOK, rec.Status())
}
