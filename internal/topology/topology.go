// Package topology models processor topologies — cores, shared-cache groups,
// per-core classes (big/little, SMT siblings) and the threading
// configurations (thread count × placement) that the ACTOR runtime chooses
// among.
//
// The reference machine is the Intel Xeon QX6600 used in the paper: four
// cores arranged as two dual-core dies on one package, each die pair sharing
// a 4 MB L2 cache, connected to memory over a 1066 MHz front-side bus
// (QuadCoreXeon). Every other machine — homogeneous many-cores and
// heterogeneous big/little or SMT parts alike — is built from a compact
// descriptor string such as "16x2" or "16x4+32x2:little" (ParseDesc, whose
// comment gives the grammar and the defaults).
package topology

import (
	"fmt"
)

// CoreID identifies a physical core on the machine, numbered from zero.
type CoreID int

// CoreClass describes a class of cores on a heterogeneous machine. The zero
// of heterogeneity is DefaultClass (nominal clock, unit CPI, one hardware
// thread); every topology without explicit classes behaves as if all cores
// were DefaultClass.
type CoreClass struct {
	// Name labels the class, e.g. "big" or "little". Names are unique
	// within a topology and feed placement naming and memo keys.
	Name string
	// FreqMult scales the core clock relative to Topology.FrequencyHz
	// (little cores run slower: 0 < FreqMult ≤ 1 typically).
	FreqMult float64
	// CPIMult scales the core-inherent CPI (narrower issue, shallower
	// pipelines: CPIMult ≥ 1 typically). SMT issue sharing is folded in
	// here: a class with SMTWidth > 1 should carry the per-sibling
	// contention in its CPIMult.
	CPIMult float64
	// SMTWidth is the number of hardware threads ParseDesc materialises
	// per declared core of this class. Siblings appear as distinct CoreIDs
	// in the same L2 group, so placements and enumeration treat them like
	// ordinary cores.
	SMTWidth int
}

// DefaultClass is the implicit class of every core on a homogeneous
// topology: nominal clock, unit CPI, no SMT.
func DefaultClass() CoreClass {
	return CoreClass{Name: "big", FreqMult: 1, CPIMult: 1, SMTWidth: 1}
}

// LittleClass is a representative efficiency-core class: 60% clock, 30%
// more cycles per instruction: the class a descriptor spec names "little"
// without defining it.
func LittleClass() CoreClass {
	return CoreClass{Name: "little", FreqMult: 0.6, CPIMult: 1.3, SMTWidth: 1}
}

// Topology describes the cores of a machine and how they share caches.
type Topology struct {
	// Name is a human-readable machine name, e.g. "Intel Xeon QX6600".
	Name string
	// NumCores is the total number of physical cores.
	NumCores int
	// L2Groups partitions the cores into groups that share a last-level
	// cache. Every core appears in exactly one group. Groups may have
	// different sizes (asymmetric machines).
	L2Groups [][]CoreID
	// L2BytesPerGroup is the capacity of each shared L2 cache in bytes.
	L2BytesPerGroup int64
	// L1BytesPerCore is the capacity of each private L1 data cache in bytes.
	L1BytesPerCore int64
	// FrequencyHz is the nominal core clock frequency; per-class FreqMult
	// scales it for little cores.
	FrequencyHz float64
	// BusBandwidth is the front-side bus bandwidth in bytes per second.
	BusBandwidth float64
	// Classes is the core-class table of a heterogeneous machine. Empty
	// means every core is DefaultClass (all pre-existing topologies).
	Classes []CoreClass
	// CoreClasses maps CoreID → index into Classes. Nil means every core
	// has class 0 (or DefaultClass when Classes is empty too).
	CoreClasses []int
}

// ClassIndexOf returns the class-table index of core c (0 for cores on
// homogeneous topologies or outside the class map).
func (t *Topology) ClassIndexOf(c CoreID) int {
	if t.CoreClasses == nil || c < 0 || int(c) >= len(t.CoreClasses) {
		return 0
	}
	return t.CoreClasses[c]
}

// QuadCoreXeon returns the topology of the paper's experimental platform:
// an Intel Xeon QX6600 with two tightly coupled core pairs, 4 MB of L2 per
// pair, 32 KB L1D per core, a 2.4 GHz clock, and a 1066 MT/s front-side bus
// (8.5 GB/s peak).
func QuadCoreXeon() *Topology {
	return &Topology{
		Name:            "Intel Xeon QX6600 (quad-core)",
		NumCores:        4,
		L2Groups:        [][]CoreID{{0, 1}, {2, 3}},
		L2BytesPerGroup: 4 << 20,
		L1BytesPerCore:  32 << 10,
		FrequencyHz:     2.4e9,
		BusBandwidth:    8.5e9,
	}
}

// Validate checks internal consistency: every core in exactly one L2 group,
// positive capacities and clock.
func (t *Topology) Validate() error {
	if t.NumCores <= 0 {
		return fmt.Errorf("topology %q: NumCores = %d", t.Name, t.NumCores)
	}
	seen := make(map[CoreID]bool, t.NumCores)
	for _, g := range t.L2Groups {
		if len(g) == 0 {
			return fmt.Errorf("topology %q: empty L2 group", t.Name)
		}
		for _, c := range g {
			if c < 0 || int(c) >= t.NumCores {
				return fmt.Errorf("topology %q: core %d out of range", t.Name, c)
			}
			if seen[c] {
				return fmt.Errorf("topology %q: core %d in two L2 groups", t.Name, c)
			}
			seen[c] = true
		}
	}
	if len(seen) != t.NumCores {
		return fmt.Errorf("topology %q: %d of %d cores assigned to L2 groups", t.Name, len(seen), t.NumCores)
	}
	if t.L2BytesPerGroup <= 0 || t.L1BytesPerCore <= 0 {
		return fmt.Errorf("topology %q: non-positive cache capacity", t.Name)
	}
	if t.FrequencyHz <= 0 || t.BusBandwidth <= 0 {
		return fmt.Errorf("topology %q: non-positive frequency or bandwidth", t.Name)
	}
	if err := t.validateClasses(); err != nil {
		return err
	}
	return nil
}

// validateClasses checks the class table and per-core class map of a
// heterogeneous topology. Homogeneous topologies (no Classes, no
// CoreClasses) are trivially valid.
func (t *Topology) validateClasses() error {
	if len(t.Classes) == 0 {
		if len(t.CoreClasses) != 0 {
			return fmt.Errorf("topology %q: CoreClasses set without a Classes table", t.Name)
		}
		return nil
	}
	names := make(map[string]bool, len(t.Classes))
	for i, c := range t.Classes {
		if c.Name == "" {
			return fmt.Errorf("topology %q: class %d has no name", t.Name, i)
		}
		if names[c.Name] {
			return fmt.Errorf("topology %q: duplicate class name %q", t.Name, c.Name)
		}
		names[c.Name] = true
		if c.FreqMult <= 0 {
			return fmt.Errorf("topology %q: class %q FreqMult = %g", t.Name, c.Name, c.FreqMult)
		}
		if c.CPIMult <= 0 {
			return fmt.Errorf("topology %q: class %q CPIMult = %g", t.Name, c.Name, c.CPIMult)
		}
		if c.SMTWidth < 1 {
			return fmt.Errorf("topology %q: class %q SMTWidth = %d", t.Name, c.Name, c.SMTWidth)
		}
	}
	if len(t.CoreClasses) != t.NumCores {
		return fmt.Errorf("topology %q: %d core-class entries for %d cores", t.Name, len(t.CoreClasses), t.NumCores)
	}
	for c, ci := range t.CoreClasses {
		if ci < 0 || ci >= len(t.Classes) {
			return fmt.Errorf("topology %q: core %d references unknown class %d", t.Name, c, ci)
		}
	}
	return nil
}

// ValidatePlacement checks that pl is executable on t: at least one thread,
// no repeated cores, and every core present in an L2 group of the topology.
// The error is descriptive — callers surface it when a configuration meant
// for one machine (e.g. the quad-core paper configs) is applied to another.
// It allocates nothing on the happy path: Env.Validate re-checks the
// configuration space on every strategy run.
func (t *Topology) ValidatePlacement(pl Placement) error {
	if len(pl.Cores) == 0 {
		return fmt.Errorf("placement %q: no cores", pl.Name)
	}
	for i, c := range pl.Cores {
		if c < 0 || int(c) >= t.NumCores {
			return fmt.Errorf("placement %q: core %d out of range on %q (%d cores)",
				pl.Name, c, t.Name, t.NumCores)
		}
		for _, prev := range pl.Cores[:i] {
			if prev == c {
				return fmt.Errorf("placement %q: core %d listed twice", pl.Name, c)
			}
		}
		if t.GroupOf(c) < 0 {
			return fmt.Errorf("placement %q: core %d is in no L2 group of %q", pl.Name, c, t.Name)
		}
	}
	return nil
}

// GroupOf returns the index of the L2 group containing core c, or -1 when
// the core is unknown.
func (t *Topology) GroupOf(c CoreID) int {
	for gi, g := range t.L2Groups {
		for _, cc := range g {
			if cc == c {
				return gi
			}
		}
	}
	return -1
}

// Placement is a binding of threads to cores: one thread per listed core.
// Placements are the units the runtime chooses among; the paper's
// configurations 1, 2a, 2b, 3 and 4 are placements on the quad-core Xeon.
type Placement struct {
	// Name is the configuration label used throughout the paper,
	// e.g. "2b" for two threads on loosely coupled cores.
	Name string
	// Cores lists the cores hosting threads, in thread order.
	Cores []CoreID
}

// Threads returns the number of threads the placement runs.
func (p Placement) Threads() int { return len(p.Cores) }

// String returns the placement in "name[c0 c1 ...]" form.
func (p Placement) String() string {
	return fmt.Sprintf("%s%v", p.Name, p.Cores)
}

// PaperConfigs returns the five configurations evaluated in the paper on the
// quad-core Xeon, in canonical order: 1, 2a, 2b, 3, 4.
//
//	1  — one thread on core 0
//	2a — two threads on tightly coupled cores (same L2): cores 0,1
//	2b — two threads on loosely coupled cores (different L2s): cores 0,2
//	3  — three threads: cores 0,1,2 (one full pair plus a solo core)
//	4  — four threads on all cores
func PaperConfigs() []Placement {
	return []Placement{
		{Name: "1", Cores: []CoreID{0}},
		{Name: "2a", Cores: []CoreID{0, 1}},
		{Name: "2b", Cores: []CoreID{0, 2}},
		{Name: "3", Cores: []CoreID{0, 1, 2}},
		{Name: "4", Cores: []CoreID{0, 1, 2, 3}},
	}
}

// ConfigByName returns the paper configuration with the given name.
func ConfigByName(name string) (Placement, bool) {
	for _, p := range PaperConfigs() {
		if p.Name == name {
			return p, true
		}
	}
	return Placement{}, false
}
