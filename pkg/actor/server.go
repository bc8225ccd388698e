package actor

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/greenhpc/actor/internal/wire"
)

// maxRequestBody caps every POST body the server decodes. A stalled or
// unbounded body can otherwise pin a serving goroutine for the connection
// lifetime; 1 MiB is orders of magnitude above any legitimate payload.
const maxRequestBody = 1 << 20

// Server serves a trained bank over HTTP JSON — the online half of the
// paper run as a service. Endpoints:
//
//	GET  /healthz     liveness probe (process is up)
//	GET  /readyz      readiness probe (willing to take traffic; 503 while
//	                  draining)
//	GET  /v1/bank     bank metadata (topology, configs, event sets)
//	POST /v1/predict  observed rates (+ optional phase label) → ranked configs
//	POST /v1/sweep    benchmark (+ optional phases) → per-placement responses
//	POST /v1/eval     one shard of a distributed sweep → deterministic rows
//
// Every request runs to completion on the goroutine net/http gave it:
// predictions directly on the bank (steady-state allocation-free), sweeps
// and eval shards through Engine.Sweep over the engine's shared phase memo
// (repeat sweeps are memo hits). The Server owns no goroutine and no queue,
// so in-flight request lifetime belongs to http.Server.Shutdown alone.
// Create with NewServer.
type Server struct {
	eng *Engine
	mux *http.ServeMux

	// draining flips readiness to 503 ahead of shutdown (BeginDrain) so
	// health-checking clients stop routing new work here while in-flight
	// requests finish.
	draining atomic.Bool

	// memo caches fully encoded /v1/predict responses by exact canonical
	// request. The bank state's memo generation joins the key, so entries
	// cached against a previous bank can never be served after a swap.
	memo *bodyMemo

	// evals caches fully encoded /v1/eval responses by shard fingerprint,
	// so a re-delivered or hedged shard costs one Write. Results are
	// deterministic, so a hit only saves recomputation.
	evals *bodyMemo

	// state is the served bank plus everything derived from it, swapped as
	// one unit (SwapBank) so a request observes a single consistent bank.
	state atomic.Pointer[bankState]
	// swapMu serialises SwapBank; nextGen is the memo-key generation
	// counter, monotonically increasing across swaps (including rollbacks,
	// which install a fresh generation of old content).
	swapMu  sync.Mutex
	nextGen int

	// recal, when non-nil, is the recalibration subsystem
	// (EnableRecalibration): the /v1/recal/* admin routes come alive.
	recal atomic.Pointer[Recalibrator]
}

// bankState is one immutable served-bank snapshot: the bank, the memo key
// generation that isolates its cache entries, and the pre-encoded /v1/bank
// response. Handlers load it once per request and never see a torn swap.
type bankState struct {
	bank *Bank
	gen  int    // memo-key generation, unique per installed state
	body []byte // encoded /v1/bank response
	blen []string
}

// NewServer builds a Server over the engine's attached bank. The engine
// must have a bank (Train, LoadBank via ForBank, or AttachBank).
func NewServer(eng *Engine) (*Server, error) {
	bank := eng.Bank()
	if bank == nil {
		return nil, fmt.Errorf("actor: serving needs a bank attached to the engine")
	}
	s := &Server{
		eng:   eng,
		mux:   http.NewServeMux(),
		memo:  newBodyMemo(),
		evals: newBodyMemo(),
	}
	// The initial memo generation is the bank's format version, preserving
	// the historical key layout; swaps move strictly upward from there.
	s.nextGen = bank.Meta().Version
	st, err := s.encodeBankState(bank, s.nextGen)
	if err != nil {
		return nil, err
	}
	s.state.Store(st)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/v1/bank", s.handleBank)
	s.mux.HandleFunc("/v1/predict", s.handlePredict)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/eval", s.handleEval)
	s.mux.HandleFunc("/v1/recal/status", s.handleRecalStatus)
	s.mux.HandleFunc("/v1/recal/trigger", s.handleRecalTrigger)
	s.mux.HandleFunc("/v1/recal/rollback", s.handleRecalRollback)
	return s, nil
}

// encodeBankState renders one bank into a complete, immutable bankState.
func (s *Server) encodeBankState(bank *Bank, gen int) (*bankState, error) {
	info := BankInfo{
		Meta:     bank.Meta(),
		Benches:  s.eng.BenchNames(),
		Topology: s.eng.TopologyDesc(),
	}
	body, err := marshalCold(info)
	if err != nil {
		return nil, fmt.Errorf("actor: encoding bank info: %w", err)
	}
	return &bankState{
		bank: bank,
		gen:  gen,
		body: body,
		blen: []string{strconv.Itoa(len(body))},
	}, nil
}

// Bank returns the currently served bank.
func (s *Server) Bank() *Bank { return s.state.Load().bank }

// SwapBank atomically replaces the served bank with b: /v1/bank, /v1/predict
// and /v1/eval all flip to the new bank in one pointer store, with zero
// downtime and no torn state. The swap validates b against the engine's
// platform (AttachBank) and advances the memo generation, so prediction
// cache entries from the previous bank can never satisfy a request again.
// In-flight requests that already loaded the old state finish against it —
// old bytes for the old bank, never a mix.
func (s *Server) SwapBank(b *Bank) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	st, err := s.encodeBankState(b, s.nextGen+1)
	if err != nil {
		return err
	}
	if err := s.eng.AttachBank(b); err != nil {
		return err
	}
	s.nextGen++
	s.state.Store(st)
	return nil
}

// ServeHTTP implements http.Handler. The predict endpoint is routed with
// one string compare instead of the mux's path cleaning and pattern match:
// it is the only route whose request cost is counted in nanoseconds.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/predict" {
		s.handlePredict(w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// BeginDrain marks the server not-ready (readyz turns 503) without
// stopping it: in-flight and even new requests still complete, but
// health-checking clients — the dist coordinator, a load balancer — stop
// sending new work. Call it ahead of http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close is BeginDrain: the Server holds nothing to release. Safe to call
// concurrently and repeatedly; requests arriving afterwards are still
// served, as during any drain.
func (s *Server) Close() { s.BeginDrain() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeCold(w, http.StatusOK, statusReply{"ok"})
}

// handleReadyz is the readiness probe, distinct from liveness: a 503 here
// means "alive but do not route new work to me". Not-ready while draining
// (BeginDrain/Close). The dist coordinator's worker health state machine
// consumes this.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.draining.Load() {
		writeCold(w, http.StatusServiceUnavailable, statusReply{"draining"})
		return
	}
	writeCold(w, http.StatusOK, statusReply{"ready"})
}

// BankInfo is the /v1/bank response: the bank header plus the serving
// platform's identity.
type BankInfo struct {
	Meta     Meta     `json:"meta"`
	Benches  []string `json:"benches"`
	Topology string   `json:"topology_desc,omitempty"`
}

// handleBank serves the response encoded once at NewServer, with an
// explicit Content-Length so even a bank too large for the response
// buffer goes out framed instead of chunked.
func (s *Server) handleBank(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	st := s.state.Load()
	h := w.Header()
	h["Content-Type"] = headerJSONValue
	h["Content-Length"] = st.blen
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(st.body)
}

// PredictRequest is the /v1/predict payload: the observed per-cycle event
// rates ("IPC" plus the bank's PAPI mnemonics) and an optional phase label
// echoed back for correlation.
type PredictRequest struct {
	Phase string `json:"phase,omitempty"`
	Rates Rates  `json:"rates"`
}

// PredictResponse is the ranked prediction for one request.
type PredictResponse struct {
	Phase       string       `json:"phase,omitempty"`
	Best        string       `json:"best"`
	Predictions []Prediction `json:"predictions"`
}

// handlePredict is the serving hot path: pooled body read, wire-codec
// parse, memo probe, and a single response Write — allocation-free end to
// end on a memo hit. A body outside the v1 grammar is answered with its
// documented `bad payload` rejection.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	sc := getPredictScratch()
	body, err := readBody(r.Body, sc.body)
	sc.body = body
	if err == nil {
		scan := wire.GetScanner(body)
		var phase []byte
		if phase, err = decodePredictRequest(scan, body, sc); err == nil {
			s.servePredict(w, r, sc, phase)
		}
		wire.PutScanner(scan)
	}
	if err != nil {
		writeBadPayload(w, err)
	}
	putPredictScratch(sc)
}

// servePredict answers one decoded predict request from the memo, or
// predicts, encodes and caches it.
func (s *Server) servePredict(w http.ResponseWriter, r *http.Request, sc *predictScratch, phase []byte) {
	if err := r.Context().Err(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// One state load serves the whole request: the memo key and the
	// predictor see the same bank even mid-swap.
	st := s.state.Load()
	key := sc.buildMemoKey(st.gen, phase)
	if resp := s.memo.get(key); resp != nil {
		writeBody(w, http.StatusOK, resp)
		return
	}
	ranked := st.bank.predictPMU(&sc.rates, &sc.rank)
	e := wire.GetEmitter()
	encodePredictResponse(e, phase, ranked)
	if respBody, ok := finish(w, e); ok {
		s.memo.put(key, respBody)
		writeBody(w, http.StatusOK, respBody)
	}
	wire.PutEmitter(e)
}

// SweepResponse is the /v1/sweep reply.
type SweepResponse struct {
	Sweeps []PhaseSweep `json:"sweeps"`
}

// decodePOSTBody reads one POST body into a pooled buffer and runs decode
// over it. It reports false with the rejection already written.
func decodePOSTBody(w http.ResponseWriter, r *http.Request, decode func(body []byte) error) bool {
	bufp := bodyPool.Get().(*[]byte)
	body, err := readBody(r.Body, *bufp)
	*bufp = body
	if err == nil {
		err = decode(body)
	}
	if cap(*bufp) <= 1<<20 {
		bodyPool.Put(bufp)
	}
	if err != nil {
		writeBadPayload(w, err)
		return false
	}
	return true
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req SweepRequest
	if !decodePOSTBody(w, r, func(body []byte) error { return decodeSweepRequest(body, &req) }) {
		return
	}
	if req.Bench == "" {
		writeError(w, http.StatusBadRequest, `bad payload: "bench" is required`)
		return
	}
	if sweeps, ok := s.sweep(w, r, req); ok {
		writeWire(w, http.StatusOK, func(e *wire.Emitter) { encodeSweepResponse(e, sweeps) })
	}
}

// sweep runs one sweep on the request goroutine for /v1/sweep and /v1/eval.
// It reports false with the error already written: 503 when the request's
// context was cancelled, 400 for anything the engine rejects.
func (s *Server) sweep(w http.ResponseWriter, r *http.Request, req SweepRequest) ([]PhaseSweep, bool) {
	sweeps, err := s.eng.Sweep(r.Context(), req)
	if err != nil {
		code := http.StatusBadRequest
		if r.Context().Err() != nil {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, "%v", err)
		return nil, false
	}
	return sweeps, true
}

// writeBadPayload answers a request the v1 grammar rejects: 413 when the
// body outgrew the cap, 400 otherwise.
func writeBadPayload(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if err == errBodyTooLarge {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, "bad payload: %v", err)
}

// handleEval evaluates one shard of a distributed sweep (see EvalRequest).
// Idempotent on re-delivery: the shard fingerprint keys a bounded result
// cache, and results are deterministic regardless, so a retried or hedged
// delivery always observes identical rows. Shards for a different platform
// identity (topology/seed/bank version) are rejected with 409 so a
// misconfigured coordinator fails loudly instead of merging rows computed
// on the wrong machine.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req EvalRequest
	if !decodePOSTBody(w, r, func(body []byte) error { return decodeEvalRequest(body, &req) }) {
		return
	}
	if err := s.validateEval(&req); err != nil {
		code := http.StatusConflict
		if strings.HasPrefix(err.Error(), "bad payload") {
			code = http.StatusBadRequest
		}
		writeError(w, code, "%v", err)
		return
	}
	fp := req.Shard.Fingerprint
	if cached := s.evals.get([]byte(fp)); cached != nil {
		writeBody(w, http.StatusOK, cached)
		return
	}
	sweeps := make([]PhaseSweep, 0, len(req.Units))
	for _, u := range req.Units {
		got, ok := s.sweep(w, r, u)
		if !ok {
			return
		}
		sweeps = append(sweeps, got...)
	}
	// Cache the encoded bytes, not the rows: a re-delivered or hedged shard
	// is answered with one Write and zero re-encoding.
	e := wire.GetEmitter()
	encodeEvalResponse(e, fp, sweeps)
	if body, ok := finish(w, e); ok {
		s.evals.put([]byte(fp), body)
		writeBody(w, http.StatusOK, body)
	}
	wire.PutEmitter(e)
}
