package actor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"sync"

	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/wire"
)

// This file is the one place that knows the wire format. Only the hot
// bodies are hand-encoded: the /v1/predict, /v1/sweep and /v1/eval replies,
// whose encoding cost is paid per request, compose internal/wire's Emitter.
// Every other body — /v1/bank (encoded once per bank), the health and
// readiness probes, errors and the recalibration admin replies — is off the
// per-request path and goes through encoding/json (marshalCold, writeCold).
// Both produce the bytes of a json.Encoder configured with
// SetIndent("", " "), HTML escaping and a trailing newline; the Emitter is
// held to that by codec property and fuzz tests against encoding/json.
// Decoding is the strict v1 request grammar (see "request grammar" below):
// the scanner is the only decoder, and what it does not accept is rejected
// with a documented reason.

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

// errorReply and statusReply are the error and probe bodies.
type errorReply struct {
	Error string `json:"error"`
}

type statusReply struct {
	Status string `json:"status"`
}

// marshalCold encodes a cold body: encoding/json, indented by one space,
// with a trailing newline — the bytes the Emitter is held to.
func marshalCold(v any) ([]byte, error) {
	body, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// writeCold encodes v and writes it. A value encoding/json refuses (a NaN
// or ±Inf) withholds the whole body; the client gets a 500 with a JSON
// error body instead, the contract finish keeps on the hot path.
func writeCold(w http.ResponseWriter, code int, v any) {
	body, err := marshalCold(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = marshalCold(errorReply{"encoding response: " + err.Error()})
	}
	writeBody(w, code, body)
}

// writeError answers code with a JSON error body.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeCold(w, code, errorReply{fmt.Sprintf(format, args...)})
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

// writeWire encodes one hot response with build and writes it.
func writeWire(w http.ResponseWriter, code int, build func(e *wire.Emitter)) {
	e := wire.GetEmitter()
	build(e)
	if body, ok := finish(w, e); ok {
		writeBody(w, code, body)
	}
	wire.PutEmitter(e)
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
// buffer, the parsed rate vector, the memo key under construction and the
// bank's ranking buffers. names[e] is the mnemonic event e arrived under,
// kept for the duplicate and alias rejections; it aliases the body buffer
// or the scanner arena, so the scratch is only valid while both are held.
type predictScratch struct {
	body  []byte
	key   []byte
	rates pmu.Rates
	names [pmu.NumEvents][]byte
	rank  predictBuf
}

var predictScratchPool = sync.Pool{New: func() any {
	return &predictScratch{
		body: make([]byte, 0, 4096),
		key:  make([]byte, 0, 256),
	}
}}

func getPredictScratch() *predictScratch {
	sc := predictScratchPool.Get().(*predictScratch)
	sc.rates = pmu.Rates{}
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
	if sc.rates.Has == 0 {
		return nil, errRatesMissing
	}
	return phase, nil
}

// addRate records mnemonic=v, rejecting a repeated mnemonic and two
// mnemonics that resolve to one event.
func (sc *predictScratch) addRate(mnemonic []byte, id pmu.Event, v float64) error {
	if _, seen := sc.rates.Get(id); seen {
		if bytes.Equal(sc.names[id], mnemonic) {
			return fmt.Errorf("duplicate event %q", mnemonic)
		}
		return fmt.Errorf("%q and %q name the same event", sc.names[id], mnemonic)
	}
	sc.names[id] = mnemonic
	sc.rates.Set(id, v)
	return nil
}

// buildMemoKey canonicalizes the request into the memo key: the bank
// format version (BankVersion), pair count, (event id, float64 bits) pairs
// in ascending id order, then the phase bytes. The fixed-width prefix makes
// the layout unambiguous.
func (sc *predictScratch) buildMemoKey(phase []byte) []byte {
	n := bits.OnesCount32(uint32(sc.rates.Has))
	k := sc.key[:0]
	k = append(k,
		byte(BankVersion), byte(BankVersion>>8), byte(BankVersion>>16), byte(BankVersion>>24),
		byte(n), byte(n>>8))
	for id := pmu.Event(0); int(id) < pmu.NumEvents; id++ {
		v, ok := sc.rates.Get(id)
		if !ok {
			continue
		}
		b := math.Float64bits(v)
		k = append(k, byte(id),
			byte(b), byte(b>>8), byte(b>>16), byte(b>>24),
			byte(b>>32), byte(b>>40), byte(b>>48), byte(b>>56))
	}
	k = append(k, phase...)
	sc.key = k
	return k
}
