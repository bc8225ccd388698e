package wire

import (
	"errors"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// ErrReject is the single error every Scanner method returns on input it
// does not accept, and it is final: there is no second decoder behind the
// scanner. It deliberately carries no detail. The caller knows which value
// of which key it asked for, so it — not the scanner — phrases the
// rejection the client sees (pkg/actor/codec.go, the v1 request grammar).
var ErrReject = errors.New("wire: input rejected")

const maxScanDepth = 32 // wire types nest 4 deep; anything past this is garbage

// Scanner is a pull-based JSON reader over a fully-buffered request body.
// The caller drives it in document order: BeginObjectOrNull, then ObjKey
// until it reports the closing brace, with a value read (Str, Float, Int,
// TryNull, or a nested Begin...) after each key. It reads exactly one
// top-level value and leaves trailing bytes unread; Pos tells the caller
// where they start.
//
// Returned byte slices alias either the input buffer or the scanner's
// internal arena and are valid only until Reset. Scanners are not safe for
// concurrent use; get one from GetScanner and return it with PutScanner.
type Scanner struct {
	data []byte
	pos  int
	// arena holds unescaped string data. It only grows between resets, so
	// slices handed out earlier stay valid while later strings decode.
	arena   []byte
	depth   int
	started uint64 // bit d set once the container at depth d+1 has an element
}

var scannerPool = sync.Pool{New: func() any { return &Scanner{arena: make([]byte, 0, 512)} }}

// GetScanner returns a pooled scanner reset over data.
func GetScanner(data []byte) *Scanner {
	s := scannerPool.Get().(*Scanner)
	s.Reset(data)
	return s
}

// PutScanner returns a scanner to the pool, dropping ones whose arena grew
// past 1 MiB so a single pathological body can't pin memory forever.
func PutScanner(s *Scanner) {
	if cap(s.arena) > 1<<20 {
		return
	}
	s.data = nil
	scannerPool.Put(s)
}

// Reset points the scanner at a new input, invalidating all previously
// returned slices.
func (s *Scanner) Reset(data []byte) {
	s.data = data
	s.pos = 0
	s.arena = s.arena[:0]
	s.depth = 0
	s.started = 0
}

// Pos reports how many input bytes the scanner has consumed. After the
// top-level value closes this is the value's end offset; the server
// rejects a body with anything but whitespace past it.
func (s *Scanner) Pos() int { return s.pos }

func (s *Scanner) skipWS() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// TryNull consumes a leading null literal and reports whether it did.
// Like encoding/json's scanner it does not demand a boundary after the
// literal; whatever follows is judged by the enclosing container.
func (s *Scanner) TryNull() bool {
	s.skipWS()
	if len(s.data)-s.pos >= 4 && string(s.data[s.pos:s.pos+4]) == "null" {
		s.pos += 4
		return true
	}
	return false
}

// BeginObjectOrNull consumes `{` (returning false) or a null literal
// (returning true, so the caller decides what null means; the v1 request
// grammar rejects it).
func (s *Scanner) BeginObjectOrNull() (isNull bool, err error) {
	if s.TryNull() {
		return true, nil
	}
	if s.pos >= len(s.data) || s.data[s.pos] != '{' || s.depth >= maxScanDepth {
		return false, ErrReject
	}
	s.pos++
	s.depth++
	s.started &^= uint64(1) << (s.depth - 1)
	return false, nil
}

// ObjKey returns the next object key, or ok=false once it consumes the
// closing `}`. The key is unescaped; the v1 request grammar matches it
// exactly (string(key) == "rates").
func (s *Scanner) ObjKey() (key []byte, ok bool, err error) {
	s.skipWS()
	if s.pos >= len(s.data) {
		return nil, false, ErrReject
	}
	bit := uint64(1) << (s.depth - 1)
	if s.data[s.pos] == '}' {
		s.pos++
		s.depth--
		return nil, false, nil
	}
	if s.started&bit != 0 {
		if s.data[s.pos] != ',' {
			return nil, false, ErrReject
		}
		s.pos++
		s.skipWS()
	}
	s.started |= bit
	if s.pos >= len(s.data) || s.data[s.pos] != '"' {
		return nil, false, ErrReject
	}
	key, err = s.scanString()
	if err != nil {
		return nil, false, err
	}
	s.skipWS()
	if s.pos >= len(s.data) || s.data[s.pos] != ':' {
		return nil, false, ErrReject
	}
	s.pos++
	return key, true, nil
}

// BeginArrayOrNull consumes `[` (returning false) or a null literal
// (returning true; see BeginObjectOrNull).
func (s *Scanner) BeginArrayOrNull() (isNull bool, err error) {
	if s.TryNull() {
		return true, nil
	}
	if s.pos >= len(s.data) || s.data[s.pos] != '[' || s.depth >= maxScanDepth {
		return false, ErrReject
	}
	s.pos++
	s.depth++
	s.started &^= uint64(1) << (s.depth - 1)
	return false, nil
}

// ArrayNext reports whether another element follows, consuming the `,`
// separator or the closing `]` as appropriate. When it returns true the
// caller must read exactly one value.
func (s *Scanner) ArrayNext() (ok bool, err error) {
	s.skipWS()
	if s.pos >= len(s.data) {
		return false, ErrReject
	}
	bit := uint64(1) << (s.depth - 1)
	if s.data[s.pos] == ']' {
		s.pos++
		s.depth--
		return false, nil
	}
	if s.started&bit != 0 {
		if s.data[s.pos] != ',' {
			return false, ErrReject
		}
		s.pos++
	}
	s.started |= bit
	return true, nil
}

// Str reads one string value. The result aliases the input (no escapes)
// or the arena (escapes or invalid UTF-8, which is replaced with U+FFFD
// exactly as encoding/json does).
func (s *Scanner) Str() ([]byte, error) {
	s.skipWS()
	if s.pos >= len(s.data) || s.data[s.pos] != '"' {
		return nil, ErrReject
	}
	return s.scanString()
}

// Float reads one JSON number as a float64. Out-of-range values reject
// (encoding/json errors on them too), so an accepted value is finite.
func (s *Scanner) Float() (float64, error) {
	s.skipWS()
	tok, err := s.numberToken()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(bytesToString(tok), 64)
	if err != nil {
		return 0, ErrReject
	}
	return f, nil
}

// Int reads one JSON number as an int64, rejecting fractional and
// exponent forms the way encoding/json does for integer fields.
func (s *Scanner) Int() (int64, error) {
	s.skipWS()
	tok, err := s.numberToken()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(bytesToString(tok), 10, 64)
	if err != nil {
		return 0, ErrReject
	}
	return v, nil
}

// numberToken scans one number per the JSON grammar and returns its bytes.
func (s *Scanner) numberToken() ([]byte, error) {
	d := s.data
	i := s.pos
	start := i
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i >= len(d) {
		return nil, ErrReject
	}
	switch {
	case d[i] == '0':
		i++
	case '1' <= d[i] && d[i] <= '9':
		i++
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
	default:
		return nil, ErrReject
	}
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			return nil, ErrReject
		}
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			return nil, ErrReject
		}
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
	}
	s.pos = i
	return d[start:i], nil
}

// scanString decodes the string whose opening quote is at s.pos. The fast
// loop handles escape-free, valid-UTF-8 strings with a zero-copy view of
// the input; anything else drops to unescapeString.
func (s *Scanner) scanString() ([]byte, error) {
	s.pos++ // opening quote
	start := s.pos
	d := s.data
	for s.pos < len(d) {
		c := d[s.pos]
		switch {
		case c == '"':
			b := d[start:s.pos]
			s.pos++
			return b, nil
		case c == '\\' || c < 0x20:
			return s.unescapeString(start)
		case c < utf8.RuneSelf:
			s.pos++
		default:
			r, size := utf8.DecodeRune(d[s.pos:])
			if r == utf8.RuneError && size == 1 {
				return s.unescapeString(start)
			}
			s.pos += size
		}
	}
	return nil, ErrReject // unterminated
}

// unescapeString is encoding/json's string decoder: the standard escapes,
// \uXXXX with UTF-16 surrogate pairing (lone surrogates become U+FFFD),
// invalid raw UTF-8 replaced byte-by-byte with U+FFFD, and bare control
// characters rejected. Output goes to the arena.
func (s *Scanner) unescapeString(start int) ([]byte, error) {
	arenaStart := len(s.arena)
	d := s.data
	i := start
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			s.pos = i + 1
			return s.arena[arenaStart:len(s.arena):len(s.arena)], nil
		case c == '\\':
			if i+1 >= len(d) {
				return nil, ErrReject
			}
			esc := d[i+1]
			switch esc {
			case '"', '\\', '/':
				s.arena = append(s.arena, esc)
				i += 2
			case 'b':
				s.arena = append(s.arena, '\b')
				i += 2
			case 'f':
				s.arena = append(s.arena, '\f')
				i += 2
			case 'n':
				s.arena = append(s.arena, '\n')
				i += 2
			case 'r':
				s.arena = append(s.arena, '\r')
				i += 2
			case 't':
				s.arena = append(s.arena, '\t')
				i += 2
			case 'u':
				if i+6 > len(d) {
					return nil, ErrReject
				}
				rr := hex4(d[i+2 : i+6])
				if rr < 0 {
					return nil, ErrReject
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if i+6 <= len(d) && d[i] == '\\' && d[i+1] == 'u' {
						rr1 = hex4(d[i+2 : i+6])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						i += 6
						s.arena = utf8.AppendRune(s.arena, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				s.arena = utf8.AppendRune(s.arena, rr)
			default:
				return nil, ErrReject
			}
		case c < 0x20:
			return nil, ErrReject
		case c < utf8.RuneSelf:
			s.arena = append(s.arena, c)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				s.arena = utf8.AppendRune(s.arena, utf8.RuneError)
				i++
			} else {
				s.arena = append(s.arena, d[i:i+size]...)
				i += size
			}
		}
	}
	return nil, ErrReject // unterminated
}

func hex4(b []byte) rune {
	var r rune
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// FoldEq reports whether key matches the lowercase-ASCII field name lower
// under encoding/json's field folding: ASCII case-insensitive, plus the
// two non-ASCII runes whose simple case-fold chain lands on an ASCII
// letter — U+017F LATIN SMALL LETTER LONG S (folds to s) and U+212A
// KELVIN SIGN (folds to k). The v1 request grammar matches keys exactly
// and does not call this; it stays for benchmarks/actorbench's wire probe.
func FoldEq(key []byte, lower string) bool {
	i := 0
	for j := 0; j < len(lower); j++ {
		if i >= len(key) {
			return false
		}
		lb := lower[j]
		kb := key[i]
		if kb < utf8.RuneSelf {
			if kb == lb || ('a' <= lb && lb <= 'z' && kb == lb-('a'-'A')) {
				i++
				continue
			}
			return false
		}
		r, size := utf8.DecodeRune(key[i:])
		if (r == 'ſ' && lb == 's') || (r == 'K' && lb == 'k') {
			i += size
			continue
		}
		return false
	}
	return i == len(key)
}

// bytesToString gives strconv a string view of b without copying. b must
// not be mutated while the string is live; both call sites parse and drop
// the view immediately.
func bytesToString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
