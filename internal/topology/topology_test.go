package topology

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestQuadCoreXeonValid(t *testing.T) {
	topo := QuadCoreXeon()
	if err := topo.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if topo.NumCores != 4 {
		t.Errorf("NumCores = %d, want 4", topo.NumCores)
	}
	if len(topo.L2Groups) != 2 {
		t.Errorf("L2Groups = %d, want 2", len(topo.L2Groups))
	}
	if topo.L2BytesPerGroup != 4<<20 {
		t.Errorf("L2BytesPerGroup = %d, want 4 MB", topo.L2BytesPerGroup)
	}
}

func TestGroupOf(t *testing.T) {
	topo := QuadCoreXeon()
	cases := []struct {
		core CoreID
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, -1}, {-1, -1}}
	for _, c := range cases {
		if got := topo.GroupOf(c.core); got != c.want {
			t.Errorf("GroupOf(%d) = %d, want %d", c.core, got, c.want)
		}
	}
}

func TestValidateRejectsBadTopologies(t *testing.T) {
	cases := map[string]*Topology{
		"no cores":      {Name: "x", NumCores: 0},
		"empty group":   {Name: "x", NumCores: 1, L2Groups: [][]CoreID{{}}, L2BytesPerGroup: 1, L1BytesPerCore: 1, FrequencyHz: 1, BusBandwidth: 1},
		"out of range":  {Name: "x", NumCores: 1, L2Groups: [][]CoreID{{5}}, L2BytesPerGroup: 1, L1BytesPerCore: 1, FrequencyHz: 1, BusBandwidth: 1},
		"duplicate":     {Name: "x", NumCores: 2, L2Groups: [][]CoreID{{0, 0}}, L2BytesPerGroup: 1, L1BytesPerCore: 1, FrequencyHz: 1, BusBandwidth: 1},
		"missing cores": {Name: "x", NumCores: 2, L2Groups: [][]CoreID{{0}}, L2BytesPerGroup: 1, L1BytesPerCore: 1, FrequencyHz: 1, BusBandwidth: 1},
		"zero cache":    {Name: "x", NumCores: 1, L2Groups: [][]CoreID{{0}}, L2BytesPerGroup: 0, L1BytesPerCore: 1, FrequencyHz: 1, BusBandwidth: 1},
		"zero clock":    {Name: "x", NumCores: 1, L2Groups: [][]CoreID{{0}}, L2BytesPerGroup: 1, L1BytesPerCore: 1, FrequencyHz: 0, BusBandwidth: 1},
	}
	for name, topo := range cases {
		if err := topo.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid topology", name)
		}
	}
}

func TestPaperConfigs(t *testing.T) {
	cfgs := PaperConfigs()
	if len(cfgs) != 5 {
		t.Fatalf("got %d configs, want 5", len(cfgs))
	}
	wantNames := []string{"1", "2a", "2b", "3", "4"}
	wantThreads := []int{1, 2, 2, 3, 4}
	topo := QuadCoreXeon()
	for i, cfg := range cfgs {
		if cfg.Name != wantNames[i] {
			t.Errorf("config %d name = %q, want %q", i, cfg.Name, wantNames[i])
		}
		if cfg.Threads() != wantThreads[i] {
			t.Errorf("config %s threads = %d, want %d", cfg.Name, cfg.Threads(), wantThreads[i])
		}
		for _, c := range cfg.Cores {
			if topo.GroupOf(c) < 0 {
				t.Errorf("config %s references unknown core %d", cfg.Name, c)
			}
		}
	}
	// 2a is tightly coupled (one group), 2b loosely (two groups).
	if g0, g1 := topo.GroupOf(cfgs[1].Cores[0]), topo.GroupOf(cfgs[1].Cores[1]); g0 != g1 {
		t.Errorf("2a cores in different L2 groups (%d, %d)", g0, g1)
	}
	if g0, g1 := topo.GroupOf(cfgs[2].Cores[0]), topo.GroupOf(cfgs[2].Cores[1]); g0 == g1 {
		t.Errorf("2b cores share L2 group %d", g0)
	}
}

func TestConfigByName(t *testing.T) {
	if _, ok := ConfigByName("2b"); !ok {
		t.Error("ConfigByName(2b) not found")
	}
	if _, ok := ConfigByName("5x"); ok {
		t.Error("ConfigByName(5x) unexpectedly found")
	}
}

func TestGroupLoad(t *testing.T) {
	topo := QuadCoreXeon()
	cfg, _ := ConfigByName("3") // cores 0,1,2
	if got := cfg.GroupLoad(topo, 0); got != 2 {
		t.Errorf("GroupLoad(core 0) = %d, want 2", got)
	}
	if got := cfg.GroupLoad(topo, 2); got != 1 {
		t.Errorf("GroupLoad(core 2) = %d, want 1", got)
	}
}

func TestEnumeratePlacementsQuadCore(t *testing.T) {
	topo := QuadCoreXeon()
	pls := EnumeratePlacements(topo)
	// Distinct occupancy multisets on 2×2 groups:
	// n=1: (1); n=2: (2),(1+1); n=3: (2+1); n=4: (2+2) → 5 total.
	if len(pls) != 5 {
		t.Fatalf("got %d placements, want 5: %v", len(pls), pls)
	}
	for _, pl := range pls {
		if pl.Threads() == 0 {
			t.Errorf("placement %v has no threads", pl)
		}
		seen := map[CoreID]bool{}
		for _, c := range pl.Cores {
			if seen[c] {
				t.Errorf("placement %v repeats core %d", pl, c)
			}
			seen[c] = true
			if topo.GroupOf(c) < 0 {
				t.Errorf("placement %v uses unknown core %d", pl, c)
			}
		}
	}
}

func TestEnumeratePlacementsProperties(t *testing.T) {
	f := func(coresIn, groupIn uint8) bool {
		// Derive a valid (cores, groupSize) pair from fuzz input.
		groups := int(groupIn%3) + 1  // 1..3 cores per group
		ngroups := int(coresIn%4) + 1 // 1..4 groups
		topo := mustDesc(t, fmt.Sprintf("%dx%d", ngroups, groups))
		pls := EnumeratePlacements(topo)
		if len(pls) == 0 {
			return false
		}
		seenKeys := map[string]bool{}
		for _, pl := range pls {
			if pl.Threads() < 1 || pl.Threads() > topo.NumCores {
				return false
			}
			key := pl.Name
			if seenKeys[key] {
				return false // duplicate placement generated
			}
			seenKeys[key] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// GroupLoad reports how many threads of the placement share the L2 group of
// core c (including the thread on c itself).
func (p Placement) GroupLoad(t *Topology, c CoreID) int {
	gi := t.GroupOf(c)
	if gi < 0 {
		return 0
	}
	return p.coOccupancy(t)[gi]
}

// coOccupancy returns, for each L2 group, how many of the placement's
// threads live in that group.
func (p Placement) coOccupancy(t *Topology) []int {
	occ := make([]int, len(t.L2Groups))
	for _, c := range p.Cores {
		gi := t.GroupOf(c)
		if gi >= 0 {
			occ[gi]++
		}
	}
	return occ
}
