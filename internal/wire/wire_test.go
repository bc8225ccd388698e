package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// stdlibJSON encodes v exactly the way the server always has: json.Encoder
// with SetIndent("", " ") and default HTML escaping, trailing newline.
func stdlibJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("stdlib encode: %v", err)
	}
	return buf.Bytes()
}

var emitFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 1.5, -1.5, 0.1, 2.0 / 3.0,
	1e-6, 9.999999999999999e-7, 1e-7, 5e-324, math.SmallestNonzeroFloat64,
	1e20, 1e21, 1.0000000000000002e21, 1e22, -1e21,
	math.MaxFloat64, -math.MaxFloat64,
	3.141592653589793, 6.02214076e23, 1.602176634e-19,
	123456789.123456789, 0.30000000000000004,
}

func TestEmitFloatMatchesStdlib(t *testing.T) {
	for _, f := range emitFloats {
		e := GetEmitter()
		e.Float(f)
		got, err := e.Finish()
		if err != nil {
			t.Fatalf("Float(%v): %v", f, err)
		}
		want := stdlibJSON(t, f)
		if !bytes.Equal(got, want) {
			t.Errorf("Float(%v): got %q want %q", f, got, want)
		}
		PutEmitter(e)
	}
}

var emitStrings = []string{
	"", "plain", "with space", "quote\"back\\slash", "/slash",
	"<script>&amp;</script>", "tab\tnl\nret\rbell\x07null\x00",
	"\b\f", "unicode: ☃ 日本語", "combining: é vs é",
	"line sep   and   para", " ", " ",
	"invalid utf8: \xff\xfe", "\xc3", "truncated \xe2\x82", "\xf0\x9f",
	"high plane \U0001F600", "del \x7f", "ctl \x1f\x01",
	"mixed \xffvalid☃\xfe", strings.Repeat("a", 300), strings.Repeat("é", 150),
}

func TestEmitStringMatchesStdlib(t *testing.T) {
	for _, s := range emitStrings {
		e := GetEmitter()
		e.Str(s)
		got, err := e.Finish()
		if err != nil {
			t.Fatalf("Str(%q): %v", s, err)
		}
		want := stdlibJSON(t, s)
		if !bytes.Equal(got, want) {
			t.Errorf("Str(%q): got %q want %q", s, got, want)
		}
		PutEmitter(e)
	}
}

func TestEmitDocMatchesStdlib(t *testing.T) {
	type row struct {
		Config  string  `json:"config"`
		TimeSec float64 `json:"time_sec"`
		IPC     float64 `json:"ipc"`
	}
	type doc struct {
		Bench    string         `json:"bench"`
		Phases   []string       `json:"phases"`
		Rows     []row          `json:"rows"`
		Empty    []int          `json:"empty"`
		Nothing  map[string]int `json:"nothing"`
		Observed bool           `json:"observed"`
		Null     *int           `json:"null"`
	}
	v := doc{
		Bench:   "art <&>  ",
		Phases:  []string{"p0", "p1"},
		Rows:    []row{{"8x1", 1.25, 0.5}, {"4x2", 3e-7, 1e21}},
		Empty:   []int{},
		Nothing: map[string]int{},
	}
	e := GetEmitter()
	e.BeginObject()
	e.Key("bench")
	e.Str(v.Bench)
	e.Key("phases")
	e.BeginArray()
	for _, p := range v.Phases {
		e.Str(p)
	}
	e.EndArray()
	e.Key("rows")
	e.BeginArray()
	for _, r := range v.Rows {
		e.BeginObject()
		e.Key("config")
		e.Str(r.Config)
		e.Key("time_sec")
		e.Float(r.TimeSec)
		e.Key("ipc")
		e.Float(r.IPC)
		e.EndObject()
	}
	e.EndArray()
	e.Key("empty")
	e.BeginArray()
	e.EndArray()
	e.Key("nothing")
	e.BeginObject()
	e.EndObject()
	e.Key("observed")
	e.Bool(v.Observed)
	e.Key("null")
	e.Null()
	e.EndObject()
	got, err := e.Finish()
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	want := stdlibJSON(t, v)
	if !bytes.Equal(got, want) {
		t.Errorf("doc mismatch:\ngot  %q\nwant %q", got, want)
	}
	PutEmitter(e)
}

func TestEmitNaNWithholdsOutput(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		e := GetEmitter()
		e.BeginObject()
		e.Key("ok")
		e.Str("yes")
		e.Key("bad")
		e.Float(f)
		e.EndObject()
		got, err := e.Finish()
		if err == nil || got != nil {
			t.Errorf("Float(%v): want error and nil output, got %q err %v", f, got, err)
		}
		PutEmitter(e)
	}
}

func FuzzEmitString(f *testing.F) {
	for _, s := range emitStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e := GetEmitter()
		defer PutEmitter(e)
		e.Str(s)
		got, err := e.Finish()
		if err != nil {
			t.Fatalf("Str(%q): %v", s, err)
		}
		if want := stdlibJSON(t, s); !bytes.Equal(got, want) {
			t.Errorf("Str(%q): got %q want %q", s, got, want)
		}
	})
}

func FuzzEmitFloat(f *testing.F) {
	for _, v := range emitFloats {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		e := GetEmitter()
		defer PutEmitter(e)
		e.Float(v)
		got, err := e.Finish()
		if err != nil {
			t.Fatalf("Float(%v): %v", v, err)
		}
		if want := stdlibJSON(t, v); !bytes.Equal(got, want) {
			t.Errorf("Float(%v): got %q want %q", v, got, want)
		}
	})
}

// --- Scanner ---

func TestScanStringParity(t *testing.T) {
	// Raw JSON string tokens (with quotes) that stdlib accepts; the
	// scanner must accept them with the identical decoded value.
	inputs := []string{
		`""`, `"plain"`, `" spaced out "`,
		`"esc \" \\ \/ \b \f \n \r \t"`,
		`"Aé☃😀"`,
		`"𝄞"`,                  // surrogate pair
		`"\ud800"`, `"\udc00"`, // lone surrogates -> U+FFFD
		`"\ud800\ud800"`,          // high+high -> two U+FFFD
		`"\ud800x"`, `"\ud800\n"`, // lone high + trailing
		`"\u0000\u001f"`,           // escaped control chars are fine
		"\"raw \xff invalid\"",     // invalid UTF-8 -> U+FFFD per byte
		"\"\xc3\"", "\"\xe2\x82\"", // truncated sequences
		`"日本語 ☃"`, `"Kſ"`,
	}
	for _, in := range inputs {
		var want string
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatalf("stdlib rejects test input %q: %v", in, err)
		}
		s := GetScanner([]byte(in))
		got, err := s.Str()
		if err != nil {
			t.Errorf("Str(%q): scanner rejected, stdlib accepts", in)
			PutScanner(s)
			continue
		}
		if string(got) != want {
			t.Errorf("Str(%q): got %q want %q", in, got, want)
		}
		if s.Pos() != len(in) {
			t.Errorf("Str(%q): pos %d want %d", in, s.Pos(), len(in))
		}
		PutScanner(s)
	}
}

func TestScanStringRejects(t *testing.T) {
	// Everything stdlib rejects as a string token the scanner must too.
	inputs := []string{
		`"unterminated`, `"bad \' escape"`, `"bad \x41"`, `"\u12g4"`, `"\u12"`,
		"\"raw \n newline\"", "\"raw \x00 nul\"", "\"tab\there\"",
		`"trailing backslash\`, `'single'`, `no quote`, `"\"`,
	}
	for _, in := range inputs {
		var dst string
		if err := json.Unmarshal([]byte(in), &dst); err == nil {
			t.Fatalf("stdlib accepts %q; bad test row", in)
		}
		s := GetScanner([]byte(in))
		if _, err := s.Str(); err == nil {
			t.Errorf("Str(%q): scanner accepted, stdlib rejects", in)
		}
		PutScanner(s)
	}
}

func TestScanNumberParity(t *testing.T) {
	accept := []string{
		"0", "-0", "1", "-1", "42", "3.5", "-3.5", "0.001", "1e3", "1E3",
		"1e+3", "1e-3", "1.5e300", "5e-324", "1e-400", "123456789012345678",
		"0.30000000000000004", "1e21",
	}
	for _, in := range accept {
		var want float64
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			// stdlib range-rejects some of these (1e-400 underflows on
			// some stdlib versions); scanner must then reject too.
			s := GetScanner([]byte(in))
			if _, err2 := s.Float(); err2 == nil {
				t.Errorf("Float(%q): scanner accepted, stdlib rejects (%v)", in, err)
			}
			PutScanner(s)
			continue
		}
		s := GetScanner([]byte(in))
		got, err := s.Float()
		if err != nil {
			t.Errorf("Float(%q): scanner rejected, stdlib accepts", in)
			PutScanner(s)
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Float(%q): got %v want %v", in, got, want)
		}
		PutScanner(s)
	}
	reject := []string{"", "-", "+1", "1.", ".5", "1e", "1e+", "01", "0x10", "1e309", "-1e309", "nan", "Infinity"}
	for _, in := range reject {
		s := GetScanner([]byte(in))
		got, err := s.Float()
		PutScanner(s)
		if err == nil {
			// The grammar reads a maximal prefix; "01" parses as 0 with
			// trailing garbage, exactly as a json.Decoder single read does.
			var want float64
			dec := json.NewDecoder(strings.NewReader(in))
			if derr := dec.Decode(&want); derr != nil {
				t.Errorf("Float(%q): scanner accepted %v, stdlib rejects (%v)", in, got, derr)
			} else if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Float(%q): got %v stdlib %v", in, got, want)
			}
		}
	}
}

func TestScanInt(t *testing.T) {
	for in, want := range map[string]int64{"0": 0, "-0": 0, "42": 42, "-7": -7, "9223372036854775807": math.MaxInt64} {
		s := GetScanner([]byte(in))
		got, err := s.Int()
		if err != nil || got != want {
			t.Errorf("Int(%q): got %v err %v, want %v", in, got, err, want)
		}
		PutScanner(s)
	}
	for _, in := range []string{"1.5", "1.0", "1e2", "9223372036854775808", "-", ""} {
		s := GetScanner([]byte(in))
		if _, err := s.Int(); err == nil {
			t.Errorf("Int(%q): want reject", in)
		}
		PutScanner(s)
	}
}

// TestScanObjectWalk drives the scanner the way a codec does and checks the
// composite semantics: key folding, duplicate keys last-wins, null fields,
// whitespace tolerance, trailing bytes after the top value.
func TestScanObjectWalk(t *testing.T) {
	in := []byte(" \t{ \"RATES\" : { \"ipc\" : 1.5 , \"ipc\" : 2.5 , \"x\" : null } , \"phase\" : null }\ngarbage")
	s := GetScanner(in)
	rates := map[string]float64{}
	phase := "unset"
	isNull, err := s.BeginObjectOrNull()
	if err != nil || isNull {
		t.Fatalf("BeginObjectOrNull: %v %v", isNull, err)
	}
	for {
		key, ok, err := s.ObjKey()
		if err != nil {
			t.Fatalf("ObjKey: %v", err)
		}
		if !ok {
			break
		}
		switch {
		case FoldEq(key, "rates"):
			mNull, err := s.BeginObjectOrNull()
			if err != nil {
				t.Fatalf("rates: %v", err)
			}
			if mNull {
				continue
			}
			for {
				mk, mok, err := s.ObjKey()
				if err != nil {
					t.Fatalf("rates key: %v", err)
				}
				if !mok {
					break
				}
				name := string(mk)
				if s.TryNull() {
					rates[name] = 0
					continue
				}
				v, err := s.Float()
				if err != nil {
					t.Fatalf("rates val: %v", err)
				}
				rates[name] = v
			}
		case FoldEq(key, "phase"):
			if s.TryNull() {
				continue // stdlib: null into string is a no-op
			}
			b, err := s.Str()
			if err != nil {
				t.Fatalf("phase: %v", err)
			}
			phase = string(b)
		default:
			t.Fatalf("unknown key %q", key)
		}
	}
	if rates["ipc"] != 2.5 || rates["x"] != 0 || len(rates) != 2 {
		t.Errorf("rates = %v, want ipc:2.5 x:0", rates)
	}
	if phase != "unset" {
		t.Errorf("phase = %q, want untouched", phase)
	}
	if s.Pos() != len(in)-len("\ngarbage") {
		t.Errorf("pos = %d, want value end %d", s.Pos(), len(in)-len("\ngarbage"))
	}
	PutScanner(s)
}

func TestScanObjectRejects(t *testing.T) {
	walk := func(in string) error {
		s := GetScanner([]byte(in))
		defer PutScanner(s)
		isNull, err := s.BeginObjectOrNull()
		if err != nil || isNull {
			return err
		}
		for {
			_, ok, err := s.ObjKey()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if s.TryNull() {
				continue
			}
			if _, err := s.Float(); err != nil {
				return err
			}
		}
	}
	for _, in := range []string{
		"{", `{"a"`, `{"a":`, `{"a":1`, `{"a":1,`, `{"a":1,}`, `{"a":1 "b":2}`,
		`{a:1}`, `{"a";1}`, `{"a":01}`, "", "[1]", "true", `{"a":.5}`,
	} {
		if err := walk(in); err == nil {
			t.Errorf("walk(%q): want reject", in)
		}
	}
	// But a null top level and trailing garbage after a complete value are fine.
	for _, in := range []string{"null", "nullx", "{}", `{} extra`, `{"a":1} {"b":2}`} {
		if err := walk(in); err != nil {
			t.Errorf("walk(%q): %v, want accept", in, err)
		}
	}
}

func TestScanArrayWalk(t *testing.T) {
	s := GetScanner([]byte(` [ "a" , null , "b" ] `))
	isNull, err := s.BeginArrayOrNull()
	if err != nil || isNull {
		t.Fatalf("BeginArrayOrNull: %v %v", isNull, err)
	}
	var got []string
	for {
		ok, err := s.ArrayNext()
		if err != nil {
			t.Fatalf("ArrayNext: %v", err)
		}
		if !ok {
			break
		}
		if s.TryNull() {
			got = append(got, "") // stdlib appends the zero value
			continue
		}
		b, err := s.Str()
		if err != nil {
			t.Fatalf("elem: %v", err)
		}
		got = append(got, string(b))
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "" || got[2] != "b" {
		t.Errorf("got %q", got)
	}
	PutScanner(s)

	s = GetScanner([]byte("null"))
	if isNull, err := s.BeginArrayOrNull(); err != nil || !isNull {
		t.Errorf("null array: %v %v", isNull, err)
	}
	PutScanner(s)
	for _, in := range []string{"[", "[1", "[1,", "[1,]", "[1 2]", "{}"} {
		s := GetScanner([]byte(in))
		bad := false
		if isNull, err := s.BeginArrayOrNull(); err != nil || isNull {
			bad = true
		} else {
			for {
				ok, err := s.ArrayNext()
				if err != nil {
					bad = true
					break
				}
				if !ok {
					break
				}
				if _, err := s.Float(); err != nil {
					bad = true
					break
				}
			}
		}
		if !bad {
			t.Errorf("array walk(%q): want reject", in)
		}
		PutScanner(s)
	}
}

func TestFoldEq(t *testing.T) {
	yes := [][2]string{
		{"rates", "rates"}, {"RATES", "rates"}, {"Rates", "rates"},
		{"bank_version", "bank_version"}, {"BANK_VERSION", "bank_version"},
		{"ſeed", "seed"}, {"Kelvin", "kelvin"}, {"time_sec", "time_sec"},
	}
	for _, c := range yes {
		if !FoldEq([]byte(c[0]), c[1]) {
			t.Errorf("FoldEq(%q, %q) = false", c[0], c[1])
		}
	}
	no := [][2]string{
		{"rate", "rates"}, {"ratess", "rates"}, {"", "rates"}, {"rates ", "rates"},
		{"bank-version", "bank_version"}, {"ſ", "k"}, {"K", "s"},
		{"é", "e"}, {"ratés", "rates"},
	}
	for _, c := range no {
		if FoldEq([]byte(c[0]), c[1]) {
			t.Errorf("FoldEq(%q, %q) = true", c[0], c[1])
		}
	}
}

// FuzzScanString: whenever the scanner accepts an arbitrary input as a
// string, stdlib must accept it too, with the identical value and the
// identical number of bytes consumed.
func FuzzScanString(f *testing.F) {
	f.Add([]byte(`"seed"`))
	f.Add([]byte(`"𝄞 trailing"`))
	f.Add([]byte("\"\xff\xc3\x28\""))
	f.Add([]byte(`" <&>"`))
	f.Fuzz(func(t *testing.T, in []byte) {
		s := GetScanner(in)
		defer PutScanner(s)
		got, err := s.Str()
		if err != nil {
			return // conservative rejections are allowed; the server falls back
		}
		dec := json.NewDecoder(bytes.NewReader(in))
		var want string
		if derr := dec.Decode(&want); derr != nil {
			t.Fatalf("scanner accepted %q as %q, stdlib rejects: %v", in, got, derr)
		}
		if string(got) != want {
			t.Errorf("input %q: scanner %q stdlib %q", in, got, want)
		}
		if int64(s.Pos()) != dec.InputOffset() {
			t.Errorf("input %q: scanner consumed %d, stdlib %d", in, s.Pos(), dec.InputOffset())
		}
	})
}

// FuzzScanNumber: same one-way contract for numbers, on raw bytes so the
// fuzzer can explore malformed grammar freely.
func FuzzScanNumber(f *testing.F) {
	f.Add([]byte("1.25e-3 junk"))
	f.Add([]byte("-0.0"))
	f.Add([]byte("1e309"))
	f.Add([]byte("01"))
	f.Fuzz(func(t *testing.T, in []byte) {
		s := GetScanner(in)
		defer PutScanner(s)
		got, err := s.Float()
		if err != nil {
			return
		}
		dec := json.NewDecoder(bytes.NewReader(in))
		var want float64
		if derr := dec.Decode(&want); derr != nil {
			t.Fatalf("scanner accepted %q as %v, stdlib rejects: %v", in, got, derr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("input %q: scanner %v stdlib %v", in, got, want)
		}
	})
}
