package topology

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// finitePositive reports whether x is a usable clock or multiplier: NaN fails
// every comparison, so "x <= 0" alone lets it through.
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// maxDescCores bounds the logical cores — count × size × SMT width, summed
// over specs — a descriptor may ask ParseDesc to build, and with them every
// group count and group size. Descriptors arrive from flags, fleet specs and
// bank files, and everything downstream (machine.New, the placement
// enumerations) allocates per core; the largest machine the studies build has
// 128.
const maxDescCores = 4096

// ParseDesc builds a topology from a compact descriptor string:
//
//	desc  := spec { "+" spec } [ "@" GHz ]
//	spec  := count "x" size [ ":" class ]
//	class := name [ "(" freqMult "," cpiMult [ "," smtWidth ] ")" ]
//
// Each spec contributes count shared-L2 groups of size cores, numbered in
// declaration order. The class name references "big" (DefaultClass, also the
// class of a spec without one) or "little" (LittleClass), or defines a class
// inline with explicit multipliers. A class with SMT width w materialises w
// sibling CoreIDs per declared core, all in the declaring group. A name may be
// defined again with the same values anywhere, and with other values only
// before a spec references it: a spec's cores keep the class they were
// declared with. Examples:
//
//	"2x2"                      — the quad-core Xeon's group structure
//	"16x2"                     — a 32-core homogeneous part
//	"16x4+32x2:little"         — 64 big + 64 little cores (128 total)
//	"8x4+8x2:eff(0.5,1.5,2)"   — big groups plus 2-way-SMT efficiency cores
//	"16x2@3.0"                 — 32 cores clocked at 3 GHz
//
// Everything not in the descriptor takes a QX6600-era default: a 2.4 GHz
// clock, 32 KiB of L1 per core, 1 MiB of L2 per core of the largest group,
// and a bus that grows sublinearly with the core count (8.5 GB/s up to four
// cores, a quarter of that more per four cores beyond). A machine whose cores
// are all DefaultClass has no class tables at all; any other lists its
// classes in first-use order. The generated name reads
// "N-core (AxB class + …)", adjacent specs of one size and class merged.
//
// Clocks and multipliers must be finite and positive, and the machine
// described at most maxDescCores logical cores.
func ParseDesc(desc string) (*Topology, error) {
	t, err := parseDesc(desc)
	if err != nil {
		return nil, fmt.Errorf("topology: %w (descriptor %q)", err, desc)
	}
	return t, nil
}

// descRun is count consecutive groups of size declared cores of one class,
// an index into the descriptor's class registry.
type descRun struct{ count, size, class int }

func parseDesc(desc string) (*Topology, error) {
	s := strings.TrimSpace(desc)
	if s == "" {
		return nil, fmt.Errorf("empty descriptor")
	}
	t := &Topology{FrequencyHz: 2.4e9, L1BytesPerCore: 32 << 10}
	if at := strings.LastIndex(s, "@"); at >= 0 {
		ghz, err := strconv.ParseFloat(strings.TrimSpace(s[at+1:]), 64)
		if err != nil || !finitePositive(ghz*1e9) {
			return nil, fmt.Errorf("bad clock %q", s[at+1:])
		}
		t.FrequencyHz = ghz * 1e9
		s = s[:at]
	}
	classes := []CoreClass{DefaultClass(), LittleClass()}
	var runs []descRun
	maxGroup := 0
	for _, spec := range strings.Split(s, "+") {
		spec = strings.TrimSpace(spec)
		className := ""
		if colon := strings.Index(spec, ":"); colon >= 0 {
			className = strings.TrimSpace(spec[colon+1:])
			spec = spec[:colon]
		}
		cx := strings.Split(spec, "x")
		if len(cx) != 2 {
			return nil, fmt.Errorf("spec %q is not count x size", spec)
		}
		count, err1 := strconv.Atoi(strings.TrimSpace(cx[0]))
		size, err2 := strconv.Atoi(strings.TrimSpace(cx[1]))
		if err1 != nil || err2 != nil || count <= 0 || size <= 0 {
			return nil, fmt.Errorf("bad group spec %q", spec)
		}
		ci := 0
		if className != "" {
			var err error
			if classes, ci, err = parseClass(classes, runs, className); err != nil {
				return nil, err
			}
		}
		// Each factor is checked before it multiplies, so the running total
		// stays far from overflow and nothing is allocated for a refused spec.
		smt := classes[ci].SMTWidth
		if count > maxDescCores || size > maxDescCores || smt > maxDescCores ||
			count*size > maxDescCores || count*size*smt > maxDescCores-t.NumCores {
			return nil, fmt.Errorf("more than the limit of %d logical cores", maxDescCores)
		}
		logical := size * smt
		for range count {
			grp := make([]CoreID, logical)
			for i := range grp {
				grp[i] = CoreID(t.NumCores)
				t.NumCores++
			}
			t.L2Groups = append(t.L2Groups, grp)
		}
		maxGroup = max(maxGroup, logical)
		if n := len(runs); n > 0 && runs[n-1].size == size && runs[n-1].class == ci {
			runs[n-1].count += count
		} else {
			runs = append(runs, descRun{count, size, ci})
		}
	}

	t.L2BytesPerGroup = int64(maxGroup) << 20
	t.BusBandwidth = 8.5e9
	if t.NumCores > 4 {
		t.BusBandwidth *= 1 + float64(0.25*float64(t.NumCores-4)/4)
	}
	var name strings.Builder
	for i, r := range runs {
		if i > 0 {
			name.WriteString(" + ")
		}
		fmt.Fprintf(&name, "%dx%d %s", r.count, r.size, classes[r.class].Name)
	}
	t.Name = fmt.Sprintf("%d-core (%s)", t.NumCores, name.String())

	if !slices.ContainsFunc(runs, func(r descRun) bool { return classes[r.class] != DefaultClass() }) {
		return t, nil
	}
	t.CoreClasses = make([]int, 0, t.NumCores)
	for _, r := range runs {
		c := classes[r.class]
		k := slices.Index(t.Classes, c) // class names are unique
		if k < 0 {
			k = len(t.Classes)
			t.Classes = append(t.Classes, c)
		}
		for range r.count * r.size * c.SMTWidth {
			t.CoreClasses = append(t.CoreClasses, k)
		}
	}
	return t, nil
}

// parseClass resolves a spec's class, "name" or "name(freq,cpi[,smt])",
// against the registry classes, given the runs declared so far. A definition
// is checked and then added, or replaces the entry of its name under
// ParseDesc's rule. It returns the registry and the class's index in it.
func parseClass(classes []CoreClass, runs []descRun, s string) ([]CoreClass, int, error) {
	open := strings.Index(s, "(")
	if open < 0 {
		i := classIndex(classes, s)
		if i < 0 {
			return nil, 0, fmt.Errorf("class %q is neither built-in nor defined inline (use %q)", s, s+"(freq,cpi)")
		}
		return classes, i, nil
	}
	if !strings.HasSuffix(s, ")") {
		return nil, 0, fmt.Errorf("unterminated class definition %q", s)
	}
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return nil, 0, fmt.Errorf("class definition %q has no name", s)
	}
	args := strings.Split(s[open+1:len(s)-1], ",")
	if len(args) < 2 || len(args) > 3 {
		return nil, 0, fmt.Errorf("class %q needs (freqMult,cpiMult[,smtWidth])", name)
	}
	freq, err1 := strconv.ParseFloat(strings.TrimSpace(args[0]), 64)
	cpi, err2 := strconv.ParseFloat(strings.TrimSpace(args[1]), 64)
	if err1 != nil || err2 != nil {
		return nil, 0, fmt.Errorf("class %q has non-numeric multipliers", name)
	}
	if !finitePositive(freq) || !finitePositive(cpi) {
		return nil, 0, fmt.Errorf("class %q multipliers must be finite and positive (freq %g, cpi %g)", name, freq, cpi)
	}
	smt := 1
	if len(args) == 3 {
		var err error
		if smt, err = strconv.Atoi(strings.TrimSpace(args[2])); err != nil {
			return nil, 0, fmt.Errorf("class %q has non-integer SMT width", name)
		}
		if smt < 1 {
			return nil, 0, fmt.Errorf("class %q SMT width = %d, need ≥ 1", name, smt)
		}
	}
	c := CoreClass{Name: name, FreqMult: freq, CPIMult: cpi, SMTWidth: smt}
	i := classIndex(classes, name)
	switch {
	case i < 0:
		return append(classes, c), len(classes), nil
	case classes[i] == c:
	case slices.ContainsFunc(runs, func(r descRun) bool { return r.class == i }):
		return nil, 0, fmt.Errorf("class %q redefined after a spec referenced it; use a new class name", name)
	default:
		classes[i] = c
	}
	return classes, i, nil
}

// classIndex returns the registry index of the class called name, or -1.
func classIndex(classes []CoreClass, name string) int {
	return slices.IndexFunc(classes, func(c CoreClass) bool { return c.Name == name })
}
