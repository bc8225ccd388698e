package wire

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Emitter appends indented JSON to an internal buffer. The output format is
// pinned to the one the server has always produced: json.Encoder with
// SetIndent("", " ") (one-space indent unit), HTML escaping on, and a
// trailing newline appended by Finish.
//
// Usage is positional: BeginObject/EndObject and BeginArray/EndArray
// bracket containers, Key writes an object key, and the value methods
// (Str, Float, Int, Bool, Null) write one value either after a Key or as
// an array element. Emitters are not safe for concurrent use; get one from
// GetEmitter and return it with PutEmitter.
type Emitter struct {
	B []byte

	depth int
	// started bit d records whether the container open at depth d+1 has
	// emitted at least one element (controls commas and `{}`/`[]`
	// collapsing).
	started uint64
	// pendingKey is set between Key and the value it introduces: the value
	// attaches on the same line instead of opening a new element.
	pendingKey bool
	err        error
}

// ErrUnsupportedValue mirrors encoding/json's refusal to encode NaN and
// infinities. Like json.Encoder.Encode, an emitter that hits one produces
// no output at all (Finish returns the error and no bytes).
var ErrUnsupportedValue = errors.New("wire: unsupported float value (NaN or Inf)")

const maxEmitDepth = 64 // container bitmasks are uint64; far above any wire type

var emitterPool = sync.Pool{New: func() any { return &Emitter{B: make([]byte, 0, 4096)} }}

// GetEmitter returns a reset pooled emitter.
func GetEmitter() *Emitter {
	e := emitterPool.Get().(*Emitter)
	e.Reset()
	return e
}

// PutEmitter returns an emitter to the pool. Buffers that grew beyond 1 MiB
// (one oversized sweep response) are dropped rather than pinned forever.
func PutEmitter(e *Emitter) {
	if cap(e.B) > 1<<20 {
		return
	}
	emitterPool.Put(e)
}

// Reset clears the emitter for reuse, keeping the buffer's capacity.
func (e *Emitter) Reset() {
	e.B = e.B[:0]
	e.depth = 0
	e.started = 0
	e.pendingKey = false
	e.err = nil
}

// Finish appends the trailing newline and returns the encoded bytes. When
// any value failed to encode the whole output is withheld, matching
// json.Encoder.Encode's all-or-nothing behaviour.
func (e *Emitter) Finish() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	e.B = append(e.B, '\n')
	return e.B, nil
}

func (e *Emitter) indent() {
	e.B = append(e.B, '\n')
	for i := 0; i < e.depth; i++ {
		e.B = append(e.B, ' ')
	}
}

// valuePreamble positions the writer for one value: nothing after a key,
// comma+newline+indent between array elements, nothing at the top level.
func (e *Emitter) valuePreamble() {
	if e.pendingKey {
		e.pendingKey = false
		return
	}
	if e.depth == 0 {
		return
	}
	bit := uint64(1) << (e.depth - 1)
	if e.started&bit != 0 {
		e.B = append(e.B, ',')
	}
	e.started |= bit
	e.indent()
}

// Key writes an object key (with separating comma and indentation) and
// primes the next value to attach after it.
func (e *Emitter) Key(name string) {
	if e.err != nil {
		return
	}
	bit := uint64(1) << (e.depth - 1)
	if e.started&bit != 0 {
		e.B = append(e.B, ',')
	}
	e.started |= bit
	e.indent()
	e.B = appendJSONString(e.B, name)
	e.B = append(e.B, ':', ' ')
	e.pendingKey = true
}

// BeginObject opens `{`.
func (e *Emitter) BeginObject() {
	if e.err != nil {
		return
	}
	if e.depth >= maxEmitDepth {
		e.err = errors.New("wire: emit depth exceeded")
		return
	}
	e.valuePreamble()
	e.B = append(e.B, '{')
	e.depth++
	e.started &^= uint64(1) << (e.depth - 1)
}

// EndObject closes `}`, collapsing empty objects to `{}` on one line.
func (e *Emitter) EndObject() {
	if e.err != nil {
		return
	}
	bit := uint64(1) << (e.depth - 1)
	e.depth--
	if e.started&bit != 0 {
		e.indent()
	}
	e.B = append(e.B, '}')
}

// BeginArray opens `[`.
func (e *Emitter) BeginArray() {
	if e.err != nil {
		return
	}
	if e.depth >= maxEmitDepth {
		e.err = errors.New("wire: emit depth exceeded")
		return
	}
	e.valuePreamble()
	e.B = append(e.B, '[')
	e.depth++
	e.started &^= uint64(1) << (e.depth - 1)
}

// EndArray closes `]`, collapsing empty arrays to `[]` on one line.
func (e *Emitter) EndArray() {
	if e.err != nil {
		return
	}
	bit := uint64(1) << (e.depth - 1)
	e.depth--
	if e.started&bit != 0 {
		e.indent()
	}
	e.B = append(e.B, ']')
}

// Str writes one string value.
func (e *Emitter) Str(s string) {
	if e.err != nil {
		return
	}
	e.valuePreamble()
	e.B = appendJSONString(e.B, s)
}

// StrBytes writes one string value from a byte slice without copying it
// to a string first. The bytes must not be mutated during the call.
func (e *Emitter) StrBytes(b []byte) {
	if e.err != nil {
		return
	}
	e.valuePreamble()
	e.B = appendJSONString(e.B, bytesToString(b))
}

// Float writes one float64 value with encoding/json's exact formatting.
// NaN and Inf poison the emitter (see ErrUnsupportedValue).
func (e *Emitter) Float(f float64) {
	if e.err != nil {
		return
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.err = ErrUnsupportedValue
		return
	}
	e.valuePreamble()
	e.B = appendJSONFloat(e.B, f)
}

// Bool writes one boolean value.
func (e *Emitter) Bool(v bool) {
	if e.err != nil {
		return
	}
	e.valuePreamble()
	if v {
		e.B = append(e.B, "true"...)
	} else {
		e.B = append(e.B, "false"...)
	}
}

// Null writes a JSON null.
func (e *Emitter) Null() {
	if e.err != nil {
		return
	}
	e.valuePreamble()
	e.B = append(e.B, "null"...)
}

// appendJSONFloat is encoding/json's float formatter: shortest
// round-trip via strconv, fixed-point notation inside [1e-6, 1e21), and
// the e-0X → e-X exponent cleanup.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json copies through verbatim
// with HTML escaping enabled: printable, and none of `"` `\` `<` `>` `&`.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return
}()

// appendJSONString is encoding/json's string encoder with HTML escaping
// on: control characters and `"` `\` `<` `>` `&` escaped, invalid UTF-8
// replaced with U+FFFD, U+2028/U+2029 escaped for JS embedding.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		n := len(s) - i
		if n > utf8.UTFMax {
			n = utf8.UTFMax
		}
		c, size := utf8.DecodeRuneInString(s[i : i+n])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	dst = append(dst, '"')
	return dst
}
