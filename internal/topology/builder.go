package topology

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Builder assembles heterogeneous topology descriptors group by group:
//
//	topo, err := topology.NewBuilder("M1-ish").
//		Group(4).                                  // 4 big cores, one L2
//		Group(4, topology.Class("little")).        // 4 little cores, one L2
//		Build()
//
// Groups may have different sizes and classes; classes are referenced by
// name (Class) and defined up front with DefineClass, with "big"
// (DefaultClass) and "little" (LittleClass) predefined. A class with
// SMTWidth w materialises w sibling CoreIDs per declared core, all in the
// declaring group. Unset knobs default to QX6600-era values; the bus grows
// sublinearly with core count like Manycore's.
type Builder struct {
	name    string
	freqHz  float64
	busBW   float64
	l2Bytes int64
	l1Bytes int64
	classes []CoreClass
	byName  map[string]int
	groups  []builderGroup
	err     error
}

type builderGroup struct {
	size  int
	class int
}

// GroupOption customises one Group call.
type GroupOption func(*Builder, *builderGroup)

// Class assigns the named class (defined via DefineClass, or the built-in
// "big"/"little") to every core of the group.
func Class(name string) GroupOption {
	return func(b *Builder, g *builderGroup) {
		ci, ok := b.byName[name]
		if !ok {
			b.fail(fmt.Errorf("topology: group references undefined class %q", name))
			return
		}
		g.class = ci
	}
}

// NewBuilder starts a descriptor named name ("" synthesises one at Build).
func NewBuilder(name string) *Builder {
	b := &Builder{name: name, byName: map[string]int{}}
	b.DefineClass(DefaultClass())
	b.DefineClass(LittleClass())
	return b
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// DefineClass registers (or redefines, by name) a core class for later
// Group calls to reference. Invalid multipliers fail here, before group
// expansion can act on them (a negative SMT width would otherwise panic
// sizing the group's core slice).
func (b *Builder) DefineClass(c CoreClass) *Builder {
	if c.Name == "" {
		b.fail(fmt.Errorf("topology: class with empty name"))
		return b
	}
	if !finitePositive(c.FreqMult) || !finitePositive(c.CPIMult) {
		b.fail(fmt.Errorf("topology: class %q multipliers must be finite and positive (freq %g, cpi %g)", c.Name, c.FreqMult, c.CPIMult))
		return b
	}
	if c.SMTWidth < 1 {
		b.fail(fmt.Errorf("topology: class %q SMTWidth = %d, need ≥ 1", c.Name, c.SMTWidth))
		return b
	}
	if ci, ok := b.byName[c.Name]; ok {
		if b.classes[ci] == c {
			return b // identical re-definition (same class in two specs)
		}
		// Changing a definition is only legal while no declared group
		// references the class: groups store a class index, so rewriting
		// the entry would silently retarget cores already declared (and
		// an SMT change would even resize them at Build).
		for _, g := range b.groups {
			if g.class == ci {
				b.fail(fmt.Errorf("topology: class %q redefined after groups referenced it; use a new class name", c.Name))
				return b
			}
		}
		b.classes[ci] = c
		return b
	}
	b.byName[c.Name] = len(b.classes)
	b.classes = append(b.classes, c)
	return b
}

// Group appends one shared-L2 group of size cores (default class unless a
// Class option says otherwise). SMT classes expand each declared core into
// SMTWidth sibling CoreIDs inside the group.
func (b *Builder) Group(size int, opts ...GroupOption) *Builder {
	if size <= 0 {
		b.fail(fmt.Errorf("topology: group of %d cores", size))
		return b
	}
	g := builderGroup{size: size, class: 0}
	for _, opt := range opts {
		opt(b, &g)
	}
	b.groups = append(b.groups, g)
	return b
}

// Groups appends count identical groups in one call.
func (b *Builder) Groups(count, size int, opts ...GroupOption) *Builder {
	if count <= 0 {
		b.fail(fmt.Errorf("topology: %d groups", count))
		return b
	}
	for i := 0; i < count; i++ {
		b.Group(size, opts...)
	}
	return b
}

// Frequency sets the nominal clock in Hz.
func (b *Builder) Frequency(hz float64) *Builder { b.freqHz = hz; return b }

// Build materialises and validates the topology.
func (b *Builder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.groups) == 0 {
		return nil, fmt.Errorf("topology: builder has no groups")
	}
	var (
		l2groups   [][]CoreID
		coreClass  []int
		next       CoreID
		usedClass  = make([]bool, len(b.classes))
		maxGrpSize int
	)
	for _, g := range b.groups {
		cls := b.classes[g.class]
		logical := g.size * cls.SMTWidth
		grp := make([]CoreID, logical)
		for i := range grp {
			grp[i] = next
			coreClass = append(coreClass, g.class)
			next++
		}
		l2groups = append(l2groups, grp)
		usedClass[g.class] = true
		if logical > maxGrpSize {
			maxGrpSize = logical
		}
	}
	cores := int(next)

	// Drop the class machinery entirely when every core ended up in the
	// default class: the result is byte-for-byte a homogeneous topology.
	hetero := false
	def := DefaultClass()
	for ci, used := range usedClass {
		if used && b.classes[ci] != def {
			hetero = true
		}
	}
	t := &Topology{
		Name:            b.name,
		NumCores:        cores,
		L2Groups:        l2groups,
		L2BytesPerGroup: b.l2Bytes,
		L1BytesPerCore:  b.l1Bytes,
		FrequencyHz:     b.freqHz,
		BusBandwidth:    b.busBW,
	}
	if hetero {
		// Compact the class table to referenced classes, in first-use order.
		remap := make([]int, len(b.classes))
		for i := range remap {
			remap[i] = -1
		}
		for _, ci := range coreClass {
			if remap[ci] < 0 {
				remap[ci] = len(t.Classes)
				t.Classes = append(t.Classes, b.classes[ci])
			}
		}
		t.CoreClasses = make([]int, len(coreClass))
		for c, ci := range coreClass {
			t.CoreClasses[c] = remap[ci]
		}
	}
	if t.FrequencyHz == 0 {
		t.FrequencyHz = 2.4e9
	}
	if t.L1BytesPerCore == 0 {
		t.L1BytesPerCore = 32 << 10
	}
	if t.L2BytesPerGroup == 0 {
		// 1 MB per core of the largest group: the reduced compute-to-cache
		// ratio Manycore models for dense parts.
		t.L2BytesPerGroup = int64(maxGrpSize) * (1 << 20)
	}
	if t.BusBandwidth == 0 {
		bw := 8.5e9
		if cores > 4 {
			bw *= 1 + 0.25*float64(cores-4)/4
		}
		t.BusBandwidth = bw
	}
	if t.Name == "" {
		t.Name = b.describe()
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// describe synthesises a name like "96-core (16x4 big + 16x2 little)".
func (b *Builder) describe() string {
	type run struct {
		count, size, class int
	}
	var runs []run
	for _, g := range b.groups {
		if n := len(runs); n > 0 && runs[n-1].size == g.size && runs[n-1].class == g.class {
			runs[n-1].count++
			continue
		}
		runs = append(runs, run{1, g.size, g.class})
	}
	var sb strings.Builder
	cores := 0
	for i, r := range runs {
		if i > 0 {
			sb.WriteString(" + ")
		}
		cls := b.classes[r.class]
		fmt.Fprintf(&sb, "%dx%d %s", r.count, r.size, cls.Name)
		cores += r.count * r.size * cls.SMTWidth
	}
	return fmt.Sprintf("%d-core (%s)", cores, sb.String())
}

// finitePositive reports whether x is a usable clock or multiplier: NaN fails
// every comparison, so "x <= 0" alone lets it through.
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// maxDescCores bounds the logical cores — count × size × SMT width, summed
// over specs — a descriptor may ask ParseDesc to build, and with them every
// group count and group size. Descriptors arrive from flags, fleet specs and
// bank files, and everything downstream (the builder, machine.New, the
// placement enumerations) allocates per core; the largest machine the studies
// build has 128.
const maxDescCores = 4096

// ParseDesc builds a topology from a compact descriptor string:
//
//	desc  := spec { "+" spec } [ "@" GHz ]
//	spec  := count "x" size [ ":" class ]
//	class := name [ "(" freqMult "," cpiMult [ "," smtWidth ] ")" ]
//
// Each spec contributes count shared-L2 groups of size cores. The class
// name references "big" (default) or "little", or defines a new class
// inline with explicit multipliers. Examples:
//
//	"2x2"                      — the quad-core Xeon's group structure
//	"16x2"                     — a 32-core homogeneous part
//	"16x4+32x2:little"         — 64 big + 64 little cores (128 total)
//	"8x4+8x2:eff(0.5,1.5,2)"   — big groups plus 2-way-SMT efficiency cores
//	"16x2@3.0"                 — 32 cores clocked at 3 GHz
//
// Everything not in the descriptor (cache sizes, bus bandwidth) takes the
// builder's defaults. Clocks and multipliers must be finite and positive, and
// the machine described at most maxDescCores logical cores.
func ParseDesc(desc string) (*Topology, error) {
	s := strings.TrimSpace(desc)
	if s == "" {
		return nil, fmt.Errorf("topology: empty descriptor")
	}
	b := NewBuilder("")
	if at := strings.LastIndex(s, "@"); at >= 0 {
		ghz, err := strconv.ParseFloat(s[at+1:], 64)
		if err != nil || !finitePositive(ghz*1e9) {
			return nil, fmt.Errorf("topology: bad clock %q in descriptor %q", s[at+1:], desc)
		}
		b.Frequency(ghz * 1e9)
		s = s[:at]
	}
	cores := 0
	for _, spec := range strings.Split(s, "+") {
		spec = strings.TrimSpace(spec)
		className := ""
		if colon := strings.Index(spec, ":"); colon >= 0 {
			className = strings.TrimSpace(spec[colon+1:])
			spec = spec[:colon]
		}
		cx := strings.Split(spec, "x")
		if len(cx) != 2 {
			return nil, fmt.Errorf("topology: spec %q is not count x size (descriptor %q)", spec, desc)
		}
		count, err1 := strconv.Atoi(strings.TrimSpace(cx[0]))
		size, err2 := strconv.Atoi(strings.TrimSpace(cx[1]))
		if err1 != nil || err2 != nil || count <= 0 || size <= 0 {
			return nil, fmt.Errorf("topology: bad group spec %q in descriptor %q", spec, desc)
		}
		var opts []GroupOption
		smt := 1
		if className != "" {
			name, err := parseClassInto(b, className)
			if err != nil {
				return nil, fmt.Errorf("topology: %w (descriptor %q)", err, desc)
			}
			if ci, ok := b.byName[name]; ok {
				smt = b.classes[ci].SMTWidth
			}
			opts = append(opts, Class(name))
		}
		// Each factor is checked before it multiplies, so the running total
		// stays far from overflow and nothing is allocated for a refused spec.
		if count > maxDescCores || size > maxDescCores || smt > maxDescCores ||
			count*size > maxDescCores || count*size*smt > maxDescCores-cores {
			return nil, fmt.Errorf("topology: descriptor %q describes more than the limit of %d logical cores", desc, maxDescCores)
		}
		cores += count * size * smt
		b.Groups(count, size, opts...)
	}
	t, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("topology: descriptor %q: %w", desc, err)
	}
	return t, nil
}

// parseClassInto parses "name" or "name(freq,cpi[,smt])", registering any
// inline definition on the builder, and returns the class name.
func parseClassInto(b *Builder, s string) (string, error) {
	open := strings.Index(s, "(")
	if open < 0 {
		if _, ok := b.byName[s]; !ok {
			return "", fmt.Errorf("class %q is neither built-in nor defined inline (use %q)", s, s+"(freq,cpi)")
		}
		return s, nil
	}
	if !strings.HasSuffix(s, ")") {
		return "", fmt.Errorf("unterminated class definition %q", s)
	}
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return "", fmt.Errorf("class definition %q has no name", s)
	}
	args := strings.Split(s[open+1:len(s)-1], ",")
	if len(args) < 2 || len(args) > 3 {
		return "", fmt.Errorf("class %q needs (freqMult,cpiMult[,smtWidth])", name)
	}
	freq, err1 := strconv.ParseFloat(strings.TrimSpace(args[0]), 64)
	cpi, err2 := strconv.ParseFloat(strings.TrimSpace(args[1]), 64)
	if err1 != nil || err2 != nil {
		return "", fmt.Errorf("class %q has non-numeric multipliers", name)
	}
	smt := 1
	if len(args) == 3 {
		var err error
		smt, err = strconv.Atoi(strings.TrimSpace(args[2]))
		if err != nil {
			return "", fmt.Errorf("class %q has non-integer SMT width", name)
		}
	}
	b.DefineClass(CoreClass{Name: name, FreqMult: freq, CPIMult: cpi, SMTWidth: smt})
	return name, nil
}
