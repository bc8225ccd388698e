package topology

import (
	"math"
	"reflect"
	"testing"
)

// mustDesc parses desc or fails the test.
func mustDesc(t testing.TB, desc string) *Topology {
	t.Helper()
	topo, err := ParseDesc(desc)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestParseDescFields pins, field for field, the topology ParseDesc builds:
// the expectations were recorded from the fluent builder ParseDesc went
// through before it built topologies itself. The table covers every
// TestParseDesc and accepted FuzzParseDesc case, the hetero-study and fleet
// smoke machines, inline SMT classes, clocks, redefinitions and the
// FutureScaling machines 2x2, 4x2, 8x2 and 16x2, which equal the retired
// synthetic many-core constructor's in every field but Name.
func TestParseDescFields(t *testing.T) {
	big, little := DefaultClass(), LittleClass()
	eff2 := CoreClass{Name: "eff", FreqMult: 0.5, CPIMult: 1.5, SMTWidth: 2}
	const (
		ghz24 = 0x41e1e1a300000000
		ghz3  = 0x41e65a0bc0000000
		mib   = 1 << 20
	)
	for _, c := range []struct {
		desc    string
		name    string
		cores   int
		groups  []int // (count, size) pairs; cores are numbered consecutively
		classes []CoreClass
		coreCls []int // (count, class) pairs; nil when CoreClasses is nil
		l2      int64
		freq    uint64
		bus     uint64
	}{
		{"2x2", "4-core (2x2 big)", 4, []int{2, 2}, nil, nil, 2 * mib, ghz24, 0x41ffaa3b50000000},
		{"4x2", "8-core (4x2 big)", 8, []int{4, 2}, nil, nil, 2 * mib, ghz24, 0x4203ca6512000000},
		{"8x2", "16-core (8x2 big)", 16, []int{8, 2}, nil, nil, 2 * mib, ghz24, 0x420bb4f3e6000000},
		{"16x2", "32-core (16x2 big)", 32, []int{16, 2}, nil, nil, 2 * mib, ghz24, 0x4215c508c7000000},
		{"16x4+32x2:little", "128-core (16x4 big + 32x2 little)", 128, []int{16, 4, 32, 2},
			[]CoreClass{big, little}, []int{64, 0, 64, 1}, 4 * mib, ghz24, 0x423151186fc00000},
		{"2x2:eff(0.5,1.5,2)", "8-core (2x2 eff)", 8, []int{2, 4}, []CoreClass{eff2}, []int{8, 0}, 4 * mib, ghz24, 0x4203ca6512000000},
		{"4x2@3.0", "8-core (4x2 big)", 8, []int{4, 2}, nil, nil, 2 * mib, ghz3, 0x4203ca6512000000},
		{"16x2@3.0", "32-core (16x2 big)", 32, []int{16, 2}, nil, nil, 2 * mib, ghz3, 0x4215c508c7000000},
		{"1024x4", "4096-core (1024x4 big)", 4096, []int{1024, 4}, nil, nil, 4 * mib, ghz24, 0x427fc1fafc7c0000},
		{"1x4096", "4096-core (1x4096 big)", 4096, []int{1, 4096}, nil, nil, 4096 * mib, ghz24, 0x427fc1fafc7c0000},
		{"512x2+256x2:eff(0.5,1.5,4)", "3072-core (512x2 big + 256x2 eff)", 3072, []int{512, 2, 256, 8},
			[]CoreClass{big, {Name: "eff", FreqMult: 0.5, CPIMult: 1.5, SMTWidth: 4}}, []int{1024, 0, 2048, 1}, 8 * mib, ghz24, 0x4277d76c287c0000},
		// exp.DefaultHeteroScenarios.
		{"16x4", "64-core (16x4 big)", 64, []int{16, 4}, nil, nil, 4 * mib, ghz24, 0x4222cd1337800000},
		{"12x4+8x2:little", "64-core (12x4 big + 8x2 little)", 64, []int{12, 4, 8, 2},
			[]CoreClass{big, little}, []int{48, 0, 16, 1}, 4 * mib, ghz24, 0x4222cd1337800000},
		{"16x4+16x2:little", "96-core (16x4 big + 16x2 little)", 96, []int{16, 4, 16, 2},
			[]CoreClass{big, little}, []int{64, 0, 32, 1}, 4 * mib, ghz24, 0x422ab7a20b800000},
		// The fleet smoke machine classes (2x2 is above).
		{"1x4+2x2:little", "8-core (1x4 big + 2x2 little)", 8, []int{1, 4, 2, 2},
			[]CoreClass{big, little}, []int{4, 0, 4, 1}, 4 * mib, ghz24, 0x4203ca6512000000},
		{"4x2+2x2:little", "12-core (4x2 big + 2x2 little)", 12, []int{6, 2},
			[]CoreClass{big, little}, []int{8, 0, 4, 1}, 2 * mib, ghz24, 0x4207bfac7c000000},
		// Inline SMT classes, with and without a clock.
		{"8x4+8x2:eff(0.5,1.5,2)", "64-core (8x4 big + 8x2 eff)", 64, []int{16, 4},
			[]CoreClass{big, eff2}, []int{32, 0, 32, 1}, 4 * mib, ghz24, 0x4222cd1337800000},
		{"8x4+8x2:eff(0.5,1.5,2)@3.0", "64-core (8x4 big + 8x2 eff)", 64, []int{16, 4},
			[]CoreClass{big, eff2}, []int{32, 0, 32, 1}, 4 * mib, ghz3, 0x4222cd1337800000},
		{"1x2:smt2(1,1.4,2)", "4-core (1x2 smt2)", 4, []int{1, 4},
			[]CoreClass{{Name: "smt2", FreqMult: 1, CPIMult: 1.4, SMTWidth: 2}}, []int{4, 0}, 4 * mib, ghz24, 0x41ffaa3b50000000},
		// Group sizes and specs in any order; adjacent equal runs merge in
		// the name; classes in first-use order.
		{"1x1+1x2+1x3:little", "6-core (1x1 big + 1x2 big + 1x3 little)", 6, []int{1, 1, 1, 2, 1, 3},
			[]CoreClass{big, little}, []int{3, 0, 3, 1}, 3 * mib, ghz24, 0x4201cfc15d000000},
		{"2x2+2x2", "8-core (4x2 big)", 8, []int{4, 2}, nil, nil, 2 * mib, ghz24, 0x4203ca6512000000},
		{"2x2:little+2x2", "8-core (2x2 little + 2x2 big)", 8, []int{4, 2},
			[]CoreClass{little, big}, []int{4, 0, 4, 1}, 2 * mib, ghz24, 0x4203ca6512000000},
		{"4x2:little+2x4", "16-core (4x2 little + 2x4 big)", 16, []int{4, 2, 2, 4},
			[]CoreClass{little, big}, []int{8, 0, 8, 1}, 4 * mib, ghz24, 0x420bb4f3e6000000},
		{" 3 x 2 : little ", "6-core (3x2 little)", 6, []int{3, 2}, []CoreClass{little}, []int{6, 0}, 2 * mib, ghz24, 0x4201cfc15d000000},
		// The clock text is trimmed like every other field.
		{"3x2 @ 1.5", "6-core (3x2 big)", 6, []int{3, 2}, nil, nil, 2 * mib, 0x41d65a0bc0000000, 0x4201cfc15d000000},
		{" 3 x 2 : big @ 1.5 ", "6-core (3x2 big)", 6, []int{3, 2}, nil, nil, 2 * mib, 0x41d65a0bc0000000, 0x4201cfc15d000000},
		// Naming the default class, defining it with its own values, or an
		// empty class name: still homogeneous.
		{"2x2:big", "4-core (2x2 big)", 4, []int{2, 2}, nil, nil, 2 * mib, ghz24, 0x41ffaa3b50000000},
		{"2x2:big(1,1)", "4-core (2x2 big)", 4, []int{2, 2}, nil, nil, 2 * mib, ghz24, 0x41ffaa3b50000000},
		{"2x2:", "4-core (2x2 big)", 4, []int{2, 2}, nil, nil, 2 * mib, ghz24, 0x41ffaa3b50000000},
		// Redefinitions: before first use, and identical after it.
		{"2x2:big(0.5,1)", "4-core (2x2 big)", 4, []int{2, 2},
			[]CoreClass{{Name: "big", FreqMult: 0.5, CPIMult: 1, SMTWidth: 1}}, []int{4, 0}, 2 * mib, ghz24, 0x41ffaa3b50000000},
		{"2x2:little(1,1,8)", "32-core (2x2 little)", 32, []int{2, 16},
			[]CoreClass{{Name: "little", FreqMult: 1, CPIMult: 1, SMTWidth: 8}}, []int{32, 0}, 16 * mib, ghz24, 0x4215c508c7000000},
		{"1x2:little(0.5,2)+1x2:little", "4-core (2x2 little)", 4, []int{2, 2},
			[]CoreClass{{Name: "little", FreqMult: 0.5, CPIMult: 2, SMTWidth: 1}}, []int{4, 0}, 2 * mib, ghz24, 0x41ffaa3b50000000},
		{"2x2:c(1,1.5)+4x2:c(1,1.5)", "12-core (6x2 c)", 12, []int{6, 2},
			[]CoreClass{{Name: "c", FreqMult: 1, CPIMult: 1.5, SMTWidth: 1}}, []int{12, 0}, 2 * mib, ghz24, 0x4207bfac7c000000},
	} {
		topo, err := ParseDesc(c.desc)
		if err != nil {
			t.Errorf("ParseDesc(%q): %v", c.desc, err)
			continue
		}
		var groups [][]CoreID
		next := CoreID(0)
		for i := 0; i < len(c.groups); i += 2 {
			for range c.groups[i] {
				g := make([]CoreID, c.groups[i+1])
				for j := range g {
					g[j] = next
					next++
				}
				groups = append(groups, g)
			}
		}
		var coreCls []int
		for i := 0; i < len(c.coreCls); i += 2 {
			for range c.coreCls[i] {
				coreCls = append(coreCls, c.coreCls[i+1])
			}
		}
		if topo.Name != c.name {
			t.Errorf("%q: Name = %q, want %q", c.desc, topo.Name, c.name)
		}
		if topo.NumCores != c.cores || !reflect.DeepEqual(topo.L2Groups, groups) {
			t.Errorf("%q: %d cores in groups %v, want %d in %v", c.desc, topo.NumCores, topo.L2Groups, c.cores, groups)
		}
		if !reflect.DeepEqual(topo.Classes, c.classes) || !reflect.DeepEqual(topo.CoreClasses, coreCls) {
			t.Errorf("%q: classes %v / %v, want %v / %v", c.desc, topo.Classes, topo.CoreClasses, c.classes, coreCls)
		}
		if topo.L2BytesPerGroup != c.l2 || topo.L1BytesPerCore != 32<<10 {
			t.Errorf("%q: L2 %d, L1 %d bytes, want %d, %d", c.desc, topo.L2BytesPerGroup, topo.L1BytesPerCore, c.l2, 32<<10)
		}
		if f, b := math.Float64bits(topo.FrequencyHz), math.Float64bits(topo.BusBandwidth); f != c.freq || b != c.bus {
			t.Errorf("%q: clock bits %#x, bus bits %#x, want %#x, %#x", c.desc, f, b, c.freq, c.bus)
		}
	}
}
