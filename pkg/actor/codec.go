package actor

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"

	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/wire"
)

// This file composes internal/wire's Emitter and Scanner into the server's
// per-type codecs, and is the one place that knows the wire format.
// Encoding is byte-identical to a json.Encoder configured with
// SetIndent("", " "), HTML escaping and a trailing newline — enforced by
// codec property and fuzz tests against encoding/json. Decoding is the
// strict v1 request grammar (see "request grammar" below): the scanner is
// the only decoder, and what it does not accept is rejected with a
// documented reason. encoding/json is the tests' reference, not a
// serving-path fallback.

// headerJSONValue is the shared Content-Type value slice. Handlers assign
// it into the header map directly: http.Header.Set allocates a fresh
// []string per call, which is most of what's left on a memo-hit request.
var headerJSONValue = []string{"application/json"}

// writeBody writes a fully encoded JSON response body.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = headerJSONValue
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// finish returns e's completed document. A non-finite float anywhere in it
// withholds the whole document; finish then answers 500 itself and
// reports false, so no reply ever goes out as headers without a body.
func finish(w http.ResponseWriter, e *wire.Emitter) ([]byte, bool) {
	body, err := e.Finish()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return nil, false
	}
	return body, true
}

// writeWire encodes one response with build and writes it.
func writeWire(w http.ResponseWriter, code int, build func(e *wire.Emitter)) {
	e := wire.GetEmitter()
	build(e)
	if body, ok := finish(w, e); ok {
		writeBody(w, code, body)
	}
	wire.PutEmitter(e)
}

// encodeJSON renders build's document to a fresh byte slice (used for the
// precomputed /v1/bank, health and readyz bodies).
func encodeJSON(build func(e *wire.Emitter)) ([]byte, error) {
	e := wire.GetEmitter()
	defer wire.PutEmitter(e)
	build(e)
	body, err := e.Finish()
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), body...), nil
}

func encodeError(e *wire.Emitter, msg string) {
	e.BeginObject()
	e.Key("error")
	e.Str(msg)
	e.EndObject()
}

func encodeStatus(e *wire.Emitter, status string) {
	e.BeginObject()
	e.Key("status")
	e.Str(status)
	e.EndObject()
}

func encodePrediction(e *wire.Emitter, p *Prediction) {
	e.BeginObject()
	e.Key("config")
	e.Str(p.Config)
	e.Key("ipc")
	e.Float(p.IPC)
	if p.Observed {
		e.Key("observed")
		e.Bool(true)
	}
	e.EndObject()
}

func encodePredictResponse(e *wire.Emitter, phase []byte, preds []Prediction) {
	e.BeginObject()
	if len(phase) > 0 {
		e.Key("phase")
		e.StrBytes(phase)
	}
	e.Key("best")
	e.Str(preds[0].Config)
	e.Key("predictions")
	e.BeginArray()
	for i := range preds {
		encodePrediction(e, &preds[i])
	}
	e.EndArray()
	e.EndObject()
}

func encodePhaseSweeps(e *wire.Emitter, sweeps []PhaseSweep) {
	if sweeps == nil {
		e.Null()
		return
	}
	e.BeginArray()
	for i := range sweeps {
		ps := &sweeps[i]
		e.BeginObject()
		e.Key("bench")
		e.Str(ps.Bench)
		e.Key("phase")
		e.Str(ps.Phase)
		e.Key("rows")
		if ps.Rows == nil {
			e.Null()
		} else {
			e.BeginArray()
			for j := range ps.Rows {
				r := &ps.Rows[j]
				e.BeginObject()
				e.Key("config")
				e.Str(r.Config)
				e.Key("time_sec")
				e.Float(r.TimeSec)
				e.Key("ipc")
				e.Float(r.AggIPC)
				e.EndObject()
			}
			e.EndArray()
		}
		e.EndObject()
	}
	e.EndArray()
}

func encodeSweepResponse(e *wire.Emitter, sweeps []PhaseSweep) {
	e.BeginObject()
	e.Key("sweeps")
	encodePhaseSweeps(e, sweeps)
	e.EndObject()
}

func encodeEvalResponse(e *wire.Emitter, fingerprint string, sweeps []PhaseSweep) {
	e.BeginObject()
	e.Key("fingerprint")
	e.Str(fingerprint)
	e.Key("sweeps")
	encodePhaseSweeps(e, sweeps)
	e.EndObject()
}

func encodeStrings(e *wire.Emitter, ss []string) {
	if ss == nil {
		e.Null()
		return
	}
	e.BeginArray()
	for _, s := range ss {
		e.Str(s)
	}
	e.EndArray()
}

func encodeBankInfo(e *wire.Emitter, info *BankInfo) {
	e.BeginObject()
	e.Key("meta")
	m := &info.Meta
	e.BeginObject()
	e.Key("version")
	e.Int(int64(m.Version))
	e.Key("kind")
	e.Str(string(m.Kind))
	if m.Topology != "" {
		e.Key("topology")
		e.Str(m.Topology)
	}
	if m.TopologyName != "" {
		e.Key("topology_name")
		e.Str(m.TopologyName)
	}
	if m.Cores != 0 {
		e.Key("cores")
		e.Int(int64(m.Cores))
	}
	e.Key("seed")
	e.Int(m.Seed)
	if m.Folds != 0 {
		e.Key("folds")
		e.Int(int64(m.Folds))
	}
	e.Key("configs")
	encodeStrings(e, m.Configs)
	e.Key("sample_config")
	e.Str(m.SampleConfig)
	if len(m.EventSets) != 0 {
		e.Key("event_sets")
		e.BeginArray()
		for _, set := range m.EventSets {
			encodeStrings(e, set)
		}
		e.EndArray()
	}
	if m.Generation != 0 {
		e.Key("generation")
		e.Int(int64(m.Generation))
	}
	if m.Provenance != nil {
		p := m.Provenance
		e.Key("provenance")
		e.BeginObject()
		e.Key("parent")
		e.Int(int64(p.Parent))
		if p.Trigger != "" {
			e.Key("trigger")
			e.Str(p.Trigger)
		}
		e.Key("train_samples")
		e.Int(int64(p.TrainSamples))
		e.Key("holdout_samples")
		e.Int(int64(p.HoldoutSamples))
		e.Key("candidate_err")
		e.Float(p.CandidateErr)
		e.Key("live_err")
		e.Float(p.LiveErr)
		e.Key("margin")
		e.Float(p.Margin)
		e.EndObject()
	}
	e.EndObject()
	e.Key("benches")
	encodeStrings(e, info.Benches)
	if info.Topology != "" {
		e.Key("topology_desc")
		e.Str(info.Topology)
	}
	e.EndObject()
}

// --- request grammar (v1) ---
//
// docs/SERVING.md "Wire contract (v1)" is the specification and the
// functions below are its only implementation. A request body is exactly
// one JSON object with exact-case keys, no key twice, no null anywhere and
// nothing but whitespace after it. Every violation is an error whose text
// is the documented <reason> of a `bad payload: <reason>` reply — 413 for
// errBodyTooLarge, 400 for the rest — and the first violation in document
// order is the one reported.

var (
	errBodyTooLarge = fmt.Errorf("body exceeds %d bytes", maxRequestBody)
	errNotObject    = errors.New("body must be one JSON object")
	errMalformed    = errors.New("malformed JSON")
	errTrailingData = errors.New("trailing data after the JSON object")
	errRatesMissing = errors.New(`"rates" is required and must be non-empty`)
)

func errFieldType(key, want string) error { return fmt.Errorf("%q must be %s", key, want) }

// The keys of each request object, indexed by their fieldSet bit.
var (
	predictFields = []string{"phase", "rates"}
	sweepFields   = []string{"bench", "phases"}
	evalFields    = []string{"topology", "seed", "bank_version", "shard", "units"}
	shardFields   = []string{"index", "total", "fingerprint"}
)

// fieldSet tracks which keys of one object have been seen.
type fieldSet uint8

// field resolves key against names exactly (no case folding) and returns
// the matched name, rejecting unknown keys and second occurrences.
func (f *fieldSet) field(key []byte, names []string) (string, error) {
	for i, name := range names {
		if string(key) != name {
			continue
		}
		if *f&(1<<i) != 0 {
			return "", fmt.Errorf("duplicate field %q", name)
		}
		*f |= 1 << i
		return name, nil
	}
	return "", fmt.Errorf("unknown field %q", key)
}

// bodyPool holds POST body read buffers.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// readBody slurps r.Body into buf (reusing its capacity), giving up with
// errBodyTooLarge one byte past maxRequestBody.
func readBody(body io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxRequestBody {
			return buf, errBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, fmt.Errorf("reading body: %v", err)
		}
	}
}

// beginBody consumes the opening brace of the body's single object.
func beginBody(sc *wire.Scanner) error {
	if isNull, err := sc.BeginObjectOrNull(); err != nil || isNull {
		return errNotObject
	}
	return nil
}

// endBody checks that only whitespace follows the body's object.
func endBody(sc *wire.Scanner, body []byte) error {
	for _, c := range body[sc.Pos():] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return errTrailingData
		}
	}
	return nil
}

func scanString(sc *wire.Scanner, key string) ([]byte, error) {
	b, err := sc.Str()
	if err != nil {
		return nil, errFieldType(key, "a string")
	}
	return b, nil
}

// scanInt reads an integer literal that fits the platform's int.
func scanInt(sc *wire.Scanner, key string) (int, error) {
	v, err := sc.Int()
	if err != nil || int64(int(v)) != v {
		return 0, errFieldType(key, "an integer")
	}
	return int(v), nil
}

// decodeSweepFields scans one SweepRequest object body (after its opening
// brace has been consumed) into req. Shared by /v1/sweep and the unit
// elements of /v1/eval.
func decodeSweepFields(sc *wire.Scanner, req *SweepRequest) error {
	var seen fieldSet
	for {
		key, ok, err := sc.ObjKey()
		if err != nil {
			return errMalformed
		}
		if !ok {
			return nil
		}
		name, err := seen.field(key, sweepFields)
		if err != nil {
			return err
		}
		switch name {
		case "bench":
			b, err := scanString(sc, name)
			if err != nil {
				return err
			}
			req.Bench = string(b)
		case "phases":
			if isNull, err := sc.BeginArrayOrNull(); err != nil || isNull {
				return errFieldType(name, "an array of strings")
			}
			for {
				more, err := sc.ArrayNext()
				if err != nil {
					return errMalformed
				}
				if !more {
					break
				}
				p, err := sc.Str()
				if err != nil {
					return errFieldType(name, "an array of strings")
				}
				req.Phases = append(req.Phases, string(p))
			}
		}
	}
}

// decodeSweepRequest scans a whole /v1/sweep body.
func decodeSweepRequest(body []byte, req *SweepRequest) error {
	sc := wire.GetScanner(body)
	defer wire.PutScanner(sc)
	if err := beginBody(sc); err != nil {
		return err
	}
	if err := decodeSweepFields(sc, req); err != nil {
		return err
	}
	return endBody(sc, body)
}

// decodeEvalRequest scans a whole /v1/eval body.
func decodeEvalRequest(body []byte, req *EvalRequest) error {
	sc := wire.GetScanner(body)
	defer wire.PutScanner(sc)
	if err := beginBody(sc); err != nil {
		return err
	}
	var seen fieldSet
	for {
		key, ok, err := sc.ObjKey()
		if err != nil {
			return errMalformed
		}
		if !ok {
			return endBody(sc, body)
		}
		name, err := seen.field(key, evalFields)
		if err != nil {
			return err
		}
		switch name {
		case "topology":
			b, err := scanString(sc, name)
			if err != nil {
				return err
			}
			req.Topology = string(b)
		case "seed":
			if req.Seed, err = sc.Int(); err != nil {
				return errFieldType(name, "an integer")
			}
		case "bank_version":
			if req.BankVersion, err = scanInt(sc, name); err != nil {
				return err
			}
		case "shard":
			if isNull, err := sc.BeginObjectOrNull(); err != nil || isNull {
				return errFieldType(name, "an object")
			}
			if err := decodeShardFields(sc, &req.Shard); err != nil {
				return err
			}
		case "units":
			if isNull, err := sc.BeginArrayOrNull(); err != nil || isNull {
				return errFieldType(name, "an array of objects")
			}
			for {
				more, err := sc.ArrayNext()
				if err != nil {
					return errMalformed
				}
				if !more {
					break
				}
				if isNull, err := sc.BeginObjectOrNull(); err != nil || isNull {
					return errFieldType(name, "an array of objects")
				}
				var u SweepRequest
				if err := decodeSweepFields(sc, &u); err != nil {
					return err
				}
				req.Units = append(req.Units, u)
			}
		}
	}
}

func decodeShardFields(sc *wire.Scanner, shard *ShardSpec) error {
	var seen fieldSet
	for {
		key, ok, err := sc.ObjKey()
		if err != nil {
			return errMalformed
		}
		if !ok {
			return nil
		}
		name, err := seen.field(key, shardFields)
		if err != nil {
			return err
		}
		switch name {
		case "index":
			if shard.Index, err = scanInt(sc, name); err != nil {
				return err
			}
		case "total":
			if shard.Total, err = scanInt(sc, name); err != nil {
				return err
			}
		case "fingerprint":
			b, err := scanString(sc, name)
			if err != nil {
				return err
			}
			shard.Fingerprint = string(b)
		}
	}
}

// --- predict request ---

// eventIDByName resolves a rate mnemonic to its internal event without
// allocating: the map is built once, and m[string(b)] lookups don't copy.
// "IPC" is an alias of pmu.Instructions' own mnemonic; a request naming both
// is rejected (see predictScratch.addRate).
var eventIDByName = func() map[string]pmu.Event {
	m := make(map[string]pmu.Event, pmu.NumEvents+1)
	for e := pmu.Event(0); int(e) < pmu.NumEvents; e++ {
		m[e.String()] = e
	}
	m["IPC"] = pmu.Instructions
	return m
}()

// predictScratch is the pooled per-request state of /v1/predict: the body
// buffer, the parsed rate vector as parallel arrays, the memo key under
// construction, and for the miss path a reusable pmu.Rates map and the
// bank's ranking buffers. Name slices alias the body buffer or the scanner
// arena, so the scratch is only valid while both are held.
type predictScratch struct {
	body  []byte
	key   []byte
	names [][]byte
	ids   []pmu.Event
	vals  []float64
	pr    pmu.Rates
	rank  predictBuf
}

var predictScratchPool = sync.Pool{New: func() any {
	return &predictScratch{
		body: make([]byte, 0, 4096),
		key:  make([]byte, 0, 256),
		pr:   make(pmu.Rates, pmu.NumEvents),
	}
}}

func getPredictScratch() *predictScratch {
	sc := predictScratchPool.Get().(*predictScratch)
	sc.names = sc.names[:0]
	sc.ids = sc.ids[:0]
	sc.vals = sc.vals[:0]
	sc.rank.pred = nil // never compare against a previous request's bank
	return sc
}

func putPredictScratch(sc *predictScratch) {
	if cap(sc.body) > 1<<20 {
		return
	}
	predictScratchPool.Put(sc)
}

// decodePredictRequest scans a whole /v1/predict body: the rate vector
// lands in sc, the phase label (aliasing body or the scanner arena) is
// returned.
func decodePredictRequest(scan *wire.Scanner, body []byte, sc *predictScratch) ([]byte, error) {
	if err := beginBody(scan); err != nil {
		return nil, err
	}
	var phase []byte
	var seen fieldSet
	for {
		key, ok, err := scan.ObjKey()
		if err != nil {
			return nil, errMalformed
		}
		if !ok {
			break
		}
		name, err := seen.field(key, predictFields)
		if err != nil {
			return nil, err
		}
		switch name {
		case "phase":
			if phase, err = scanString(scan, name); err != nil {
				return nil, err
			}
		case "rates":
			if isNull, err := scan.BeginObjectOrNull(); err != nil || isNull {
				return nil, errFieldType(name, "an object")
			}
			for {
				mnemonic, more, err := scan.ObjKey()
				if err != nil {
					return nil, errMalformed
				}
				if !more {
					break
				}
				id, known := eventIDByName[string(mnemonic)]
				if !known {
					return nil, fmt.Errorf("unknown event %q", mnemonic)
				}
				v, err := scan.Float()
				if err != nil {
					return nil, fmt.Errorf("rate %q must be a finite number", mnemonic)
				}
				if err := sc.addRate(mnemonic, id, v); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := endBody(scan, body); err != nil {
		return nil, err
	}
	if len(sc.ids) == 0 {
		return nil, errRatesMissing
	}
	return phase, nil
}

// addRate records mnemonic=v, rejecting a repeated mnemonic and two
// mnemonics that resolve to one event. The vectors are a dozen entries, so
// the linear probe beats any map.
func (sc *predictScratch) addRate(mnemonic []byte, id pmu.Event, v float64) error {
	for i, seen := range sc.ids {
		if seen != id {
			continue
		}
		if bytes.Equal(sc.names[i], mnemonic) {
			return fmt.Errorf("duplicate event %q", mnemonic)
		}
		return fmt.Errorf("%q and %q name the same event", sc.names[i], mnemonic)
	}
	sc.names = append(sc.names, mnemonic)
	sc.ids = append(sc.ids, id)
	sc.vals = append(sc.vals, v)
	return nil
}

// pmuRates rebuilds the reusable pmu.Rates map from the parsed pairs.
func (sc *predictScratch) pmuRates() pmu.Rates {
	clear(sc.pr)
	for i, id := range sc.ids {
		sc.pr[id] = sc.vals[i]
	}
	return sc.pr
}

// buildMemoKey canonicalizes the request into the memo key: bank version,
// pair count, (event id, float64 bits) pairs sorted by id, then the phase
// bytes. The fixed-width prefix makes the layout unambiguous, and the
// grammar guarantees the ids are distinct.
func (sc *predictScratch) buildMemoKey(bankVersion int, phase []byte) []byte {
	// Insertion-sort ids and vals together; names are done being useful.
	ids, vals := sc.ids, sc.vals
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	k := sc.key[:0]
	k = append(k,
		byte(bankVersion), byte(bankVersion>>8), byte(bankVersion>>16), byte(bankVersion>>24),
		byte(len(ids)), byte(len(ids)>>8))
	for i, id := range ids {
		k = append(k, byte(id))
		bits := math.Float64bits(vals[i])
		k = append(k,
			byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
			byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
	}
	k = append(k, phase...)
	sc.key = k
	return k
}
