package topology

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// The TestBuilder* tests check ParseDesc, which builds every descriptor
// machine, on the behaviours a descriptor can reach.

func TestBuilderBigLittle(t *testing.T) {
	topo := mustDesc(t, "1x4+1x2:little")
	if topo.NumCores != 6 {
		t.Errorf("NumCores = %d, want 6", topo.NumCores)
	}
	if len(topo.L2Groups) != 2 || len(topo.L2Groups[0]) != 4 || len(topo.L2Groups[1]) != 2 {
		t.Errorf("L2Groups = %v", topo.L2Groups)
	}
	if !topo.Heterogeneous() {
		t.Error("big+little topology not Heterogeneous")
	}
	if cls := topo.ClassOf(0); cls.Name != "big" || cls.FreqMult != 1 {
		t.Errorf("core 0 class = %+v, want big", cls)
	}
	if cls := topo.ClassOf(5); cls.Name != "little" || cls.FreqMult >= 1 {
		t.Errorf("core 5 class = %+v, want little", cls)
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderAllDefaultStaysHomogeneous(t *testing.T) {
	// Naming "big", or defining it with its own values, is still all-default.
	for _, desc := range []string{"2x2", "1x2+1x2:big", "2x2:big(1,1,1)"} {
		topo := mustDesc(t, desc)
		if topo.Classes != nil || topo.CoreClasses != nil {
			t.Errorf("%q grew class tables: %v %v", desc, topo.Classes, topo.CoreClasses)
		}
		if topo.Heterogeneous() {
			t.Errorf("%q: default-class topology reports Heterogeneous", desc)
		}
	}
}

func TestBuilderSMTExpansion(t *testing.T) {
	topo := mustDesc(t, "1x2:smt2(1,1.4,2)")
	if topo.NumCores != 4 {
		t.Errorf("2 cores × SMT2 = %d logical cores, want 4", topo.NumCores)
	}
	if len(topo.L2Groups) != 1 || len(topo.L2Groups[0]) != 4 {
		t.Errorf("SMT siblings not in the declaring group: %v", topo.L2Groups)
	}
}

func TestBuilderUndefinedClassFails(t *testing.T) {
	if _, err := ParseDesc("1x2:mythical"); err == nil {
		t.Error("undefined class accepted")
	}
}

func TestBuilderClassRedefinition(t *testing.T) {
	// Changing a referenced class must fail (the cores already declared
	// would silently change class), the built-in default included...
	for _, desc := range []string{"1x4+1x4:big(0.5,1)", "2x2:c(1,1.5)+4x2:c(1,1.7)", "1x2:c(1,1)+1x2:c(1,1,2)"} {
		if _, err := ParseDesc(desc); err == nil {
			t.Errorf("%q: redefining a referenced class accepted", desc)
		}
	}
	// ...but identical re-definition (the same inline class in two specs)
	// and redefinition before the first reference stay legal.
	if _, err := ParseDesc("2x2:c(1,1.5)+4x2:c(1,1.5)"); err != nil {
		t.Errorf("identical inline redefinition rejected: %v", err)
	}
	if !mustDesc(t, "1x2:big(0.5,1)").Heterogeneous() {
		t.Error("pre-use redefinition of the default class did not take effect")
	}
	topo := mustDesc(t, "1x2:little(0.5,2)+1x2:little")
	if got := topo.ClassOf(3); got != (CoreClass{Name: "little", FreqMult: 0.5, CPIMult: 2, SMTWidth: 1}) {
		t.Errorf("a later reference to a redefined class got %+v", got)
	}
}

func TestParseDesc(t *testing.T) {
	cases := []struct {
		desc        string
		cores       int
		groups      int
		hetero      bool
		frequencyHz float64
	}{
		{"2x2", 4, 2, false, 2.4e9},
		{"16x2", 32, 16, false, 2.4e9},
		{"16x4+32x2:little", 128, 48, true, 2.4e9},
		{"2x2:eff(0.5,1.5,2)", 8, 2, true, 2.4e9},
		{"4x2@3.0", 8, 4, false, 3.0e9},
		{"1024x4", 4096, 1024, false, 2.4e9},                   // the core limit itself
		{"1x4096", 4096, 1, false, 2.4e9},                      // in one group
		{"512x2+256x2:eff(0.5,1.5,4)", 3072, 768, true, 2.4e9}, // SMT siblings count
	}
	for _, c := range cases {
		topo, err := ParseDesc(c.desc)
		if err != nil {
			t.Errorf("ParseDesc(%q): %v", c.desc, err)
			continue
		}
		if topo.NumCores != c.cores || len(topo.L2Groups) != c.groups {
			t.Errorf("%q: %d cores / %d groups, want %d / %d",
				c.desc, topo.NumCores, len(topo.L2Groups), c.cores, c.groups)
		}
		if topo.Heterogeneous() != c.hetero {
			t.Errorf("%q: Heterogeneous = %v, want %v", c.desc, topo.Heterogeneous(), c.hetero)
		}
		if topo.FrequencyHz != c.frequencyHz {
			t.Errorf("%q: FrequencyHz = %g, want %g", c.desc, topo.FrequencyHz, c.frequencyHz)
		}
	}
	for _, bad := range []string{"", "x", "2x", "x2", "0x2", "2x2:nosuch", "2x2:c(", "2x2@-1", "2x2:c(1)",
		"2x2:c(1,1,-1)", "2x2:c(1,1,0)", "2x2:c(0,1)", "2x2:c(1,-2)",
		// Non-finite clocks and multipliers: NaN fails every sign check.
		"2x2@NaN", "2x2@Inf", "2x2@+Inf", "2x2@1e300", "2x2:e(NaN,1)", "2x2:e(1,NaN)", "2x2:e(Inf,1)", "2x2:e(1,Inf)",
		// A trimmed clock is still a number, finite and positive.
		"2x2 @ ", "2x2 @ NaN", "2x2 @ -1"} {
		if _, err := ParseDesc(bad); err == nil {
			t.Errorf("ParseDesc(%q) accepted", bad)
		}
	}
	// Past the core limit, whichever factor carries it there; the error names
	// the limit.
	for _, big := range []string{"4097x1", "1x4097", "999999x999999", "1025x4", "1024x4+1x1", "2x3+1023x4",
		"2x2:e(1,1,4097)", "1024x2:e(1,1,4)", "4611686018427387904x4", "3037000500x3037000500"} {
		_, err := ParseDesc(big)
		if err == nil {
			t.Errorf("ParseDesc(%q) accepted", big)
		} else if !strings.Contains(err.Error(), "limit of 4096") {
			t.Errorf("ParseDesc(%q): error %q does not name the limit", big, err)
		}
	}
}

// FuzzParseDesc: no descriptor panics, and an accepted one is a machine the
// rest of the system can take — valid, finitely clocked, inside the core
// bound, and enumerable with the all-cores placement last.
func FuzzParseDesc(f *testing.F) {
	for _, seed := range []string{
		"2x2", "16x4+32x2:little", "8x4+8x2:eff(0.5,1.5,2)", "16x2@3.0", "2x2@NaN", "2x2:e(1,Inf)",
		"999999x999999", "1x1+1x2+1x3:little", "2x2:little(1,1,8)", " 3 x 2 : big @ 1.5 ", "2x2:e(1,1,1)+2x2:e(1,1,4)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, desc string) {
		topo, err := ParseDesc(desc)
		if err != nil {
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("ParseDesc(%q) built an invalid topology: %v", desc, err)
		}
		if !finitePositive(topo.FrequencyHz) {
			t.Fatalf("ParseDesc(%q): FrequencyHz = %g", desc, topo.FrequencyHz)
		}
		if topo.NumCores > maxDescCores {
			t.Fatalf("ParseDesc(%q): %d cores, limit %d", desc, topo.NumCores, maxDescCores)
		}
		for _, c := range topo.Classes {
			if !finitePositive(c.FreqMult) || !finitePositive(c.CPIMult) {
				t.Fatalf("ParseDesc(%q): class %+v", desc, c)
			}
		}
		// The balanced space is Π(family cores + 1) placements of up to
		// NumCores cores each: enumerate it only where that fits a fuzz
		// iteration.
		space := 1
		for _, fam := range topo.groupFamilies() {
			if space *= fam.capacity() + 1; space*topo.NumCores > 1<<18 {
				return
			}
		}
		pls := BalancedPlacements(topo)
		if len(pls) != space-1 {
			t.Fatalf("ParseDesc(%q): %d balanced placements, want %d", desc, len(pls), space-1)
		}
		if last := pls[len(pls)-1]; last.Threads() != topo.NumCores {
			t.Fatalf("ParseDesc(%q): last balanced placement %s is not all %d cores", desc, last, topo.NumCores)
		}
	})
}

// TestEnumerateAsymmetricGroups pins the family canonicalization: on a
// machine with one 4-core group and one 2-core group of the same class, a
// single thread has two distinct placements (big group vs small group) —
// the homogeneous enumerator would have collapsed them.
func TestEnumerateAsymmetricGroups(t *testing.T) {
	topo := &Topology{
		Name:            "asym",
		NumCores:        6,
		L2Groups:        [][]CoreID{{0, 1, 2, 3}, {4, 5}},
		L2BytesPerGroup: 4 << 20, L1BytesPerCore: 32 << 10,
		FrequencyHz: 2.4e9, BusBandwidth: 8.5e9,
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	pls := EnumeratePlacements(topo)
	var oneThread []Placement
	names := map[string]bool{}
	for _, pl := range pls {
		if names[pl.Name] {
			t.Errorf("duplicate placement name %q", pl.Name)
		}
		names[pl.Name] = true
		if err := topo.ValidatePlacement(pl); err != nil {
			t.Errorf("enumerated placement invalid: %v", err)
		}
		if pl.Threads() == 1 {
			oneThread = append(oneThread, pl)
		}
	}
	if len(oneThread) != 2 {
		t.Fatalf("asymmetric groups: %d single-thread placements, want 2 (big, small): %v", len(oneThread), oneThread)
	}
	g0 := topo.GroupOf(oneThread[0].Cores[0])
	g1 := topo.GroupOf(oneThread[1].Cores[0])
	if g0 == g1 {
		t.Errorf("both single-thread placements in group %d", g0)
	}
}

// TestEnumerateHeteroClasses checks that same-shape groups of different
// classes are not canonicalized together.
func TestEnumerateHeteroClasses(t *testing.T) {
	topo := mustDesc(t, "1x2+1x2:little")
	pls := EnumeratePlacements(topo)
	// Families {big 1×2} and {little 1×2}: n=1 → 1|0, 0|1; n=2 → 2|0,
	// 1+?... patterns: (2|), (1|1), (|2); n=3 → (2|1), (1|2); n=4 → (2|2).
	if len(pls) != 8 {
		t.Fatalf("got %d placements, want 8: %v", len(pls), pls)
	}
	homog := mustDesc(t, "2x2")
	if got := len(EnumeratePlacements(homog)); got != 5 {
		t.Fatalf("homogeneous 2x2: %d placements, want 5", got)
	}
}

func TestEnumerateBalanced(t *testing.T) {
	topo := mustDesc(t, "2x2+2x2:little")
	pls := BalancedPlacements(topo)
	// Π(capacity_f + 1) − 1 = 5×5−1 vectors.
	if len(pls) != 24 {
		t.Fatalf("balanced placements = %d, want 24", len(pls))
	}
	last := pls[len(pls)-1]
	if last.Threads() != topo.NumCores {
		t.Errorf("last balanced placement has %d threads, want all %d", last.Threads(), topo.NumCores)
	}
	names := map[string]bool{}
	for i, pl := range pls {
		if names[pl.Name] {
			t.Errorf("duplicate balanced name %q", pl.Name)
		}
		names[pl.Name] = true
		if err := topo.ValidatePlacement(pl); err != nil {
			t.Errorf("balanced placement %d invalid: %v", i, err)
		}
		if i > 0 && pl.Threads() < pls[i-1].Threads() {
			t.Errorf("balanced placements not ordered by thread count at %d", i)
		}
	}
	// Homogeneous machines keep plain "n" names.
	homog := mustDesc(t, "4x2")
	for _, pl := range BalancedPlacements(homog) {
		if strings.Contains(pl.Name, ":") {
			t.Errorf("homogeneous balanced name %q has a family suffix", pl.Name)
		}
	}
}

// TestEnumerateBalancedSpreads checks the even-spread shape: 3 threads on
// a 2×2-group family occupy both groups (2+1), never one group.
func TestEnumerateBalancedSpreads(t *testing.T) {
	topo := mustDesc(t, "2x2")
	for _, pl := range BalancedPlacements(topo) {
		if pl.Threads() != 3 {
			continue
		}
		occ := map[int]int{}
		for _, c := range pl.Cores {
			occ[topo.GroupOf(c)]++
		}
		if len(occ) != 2 {
			t.Errorf("3 balanced threads occupy %d groups, want 2", len(occ))
		}
	}
}

// TestEnumerateHeteroProperties fuzzes descriptor topologies (group sizes
// and classes) through the enumeration invariants: unique names, valid
// placements, all-cores last.
func TestEnumerateHeteroProperties(t *testing.T) {
	f := func(bigGroups, bigSize, littleGroups, littleSize uint8) bool {
		bg := int(bigGroups%3) + 1
		bs := int(bigSize%3) + 1
		lg := int(littleGroups % 3)
		ls := int(littleSize%2) + 1
		desc := fmt.Sprintf("%dx%d", bg, bs)
		if lg > 0 {
			desc += fmt.Sprintf("+%dx%d:little", lg, ls)
		}
		topo, err := ParseDesc(desc)
		if err != nil {
			return false
		}
		pls := EnumeratePlacements(topo)
		if len(pls) == 0 {
			return false
		}
		names := map[string]bool{}
		for _, pl := range pls {
			if names[pl.Name] || topo.ValidatePlacement(pl) != nil {
				return false
			}
			names[pl.Name] = true
		}
		if pls[len(pls)-1].Threads() != topo.NumCores {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Heterogeneous reports whether any core deviates from DefaultClass.
func (t *Topology) Heterogeneous() bool {
	def := DefaultClass()
	for _, c := range t.Classes {
		if c.FreqMult != def.FreqMult || c.CPIMult != def.CPIMult {
			return true
		}
	}
	return false
}

// ClassOf returns the class descriptor of core c, falling back to
// DefaultClass on homogeneous topologies.
func (t *Topology) ClassOf(c CoreID) CoreClass {
	if len(t.Classes) == 0 {
		return DefaultClass()
	}
	return t.Classes[t.ClassIndexOf(c)]
}
