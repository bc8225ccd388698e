package topology

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceBalanced is the balanced enumeration written the direct way, kept
// as the reference BalancedOccupancy's generated order must reproduce:
// collect every per-family thread-count vector, stable-sort them by
// ascending total and then descending counts, spread each family's count
// over its groups as a non-increasing partition and list the cores.
func referenceBalanced(t *Topology) []Placement {
	fams := t.groupFamilies()
	type vec struct {
		total  int
		counts []int
	}
	var vecs []vec
	cur := make([]int, len(fams))
	var rec func(fi, total int)
	rec = func(fi, total int) {
		if fi == len(fams) {
			if total > 0 {
				vecs = append(vecs, vec{total, append([]int(nil), cur...)})
			}
			return
		}
		for take := 0; take <= fams[fi].capacity(); take++ {
			cur[fi] = take
			rec(fi+1, total+take)
		}
	}
	rec(0, 0)
	sort.SliceStable(vecs, func(i, j int) bool {
		if vecs[i].total != vecs[j].total {
			return vecs[i].total < vecs[j].total
		}
		for k := range vecs[i].counts {
			if vecs[i].counts[k] != vecs[j].counts[k] {
				return vecs[i].counts[k] > vecs[j].counts[k]
			}
		}
		return false
	})
	var out []Placement
	for _, v := range vecs {
		fp := make(famPattern, len(fams))
		for fi, n := range v.counts {
			g := len(fams[fi].groups)
			for i := 0; i < g; i++ {
				k := n / g
				if i < n%g {
					k++
				}
				if k == 0 {
					break
				}
				fp[fi] = append(fp[fi], k)
			}
		}
		name := strconv.Itoa(v.total)
		if len(fams) > 1 {
			parts := make([]string, len(fams))
			for fi, n := range v.counts {
				parts[fi] = strconv.Itoa(n)
			}
			name += ":" + strings.Join(parts, "/")
		}
		out = append(out, Placement{Name: name, Cores: patternCores(t, fams, fp)})
	}
	return out
}

// mixedClassTopology has two groups that each mix a big core with two little
// ones (one shape family) and a little-only pair (a second family), so a
// mixed group's (little, 2) threads share a key with the pair's.
func mixedClassTopology() *Topology {
	return &Topology{
		Name:            "mixed-class groups",
		NumCores:        8,
		L2Groups:        [][]CoreID{{0, 1, 2}, {3, 4, 5}, {6, 7}},
		L2BytesPerGroup: 2 << 20,
		L1BytesPerCore:  32 << 10,
		FrequencyHz:     2.4e9,
		BusBandwidth:    8.5e9,
		Classes:         []CoreClass{DefaultClass(), LittleClass()},
		CoreClasses:     []int{0, 1, 1, 0, 1, 1, 1, 1},
	}
}

// balancedTopologies is the table the balanced enumeration is checked on:
// single-family machines, the four hetero-study descriptors, families whose
// groups interleave (big, little, big) and a machine with mixed-class
// groups.
func balancedTopologies(t *testing.T) []*Topology {
	t.Helper()
	topos := []*Topology{QuadCoreXeon()}
	for _, desc := range []string{"4x2", "3x4", "16x4", "12x4+8x2:little", "16x4+16x2:little", "16x4+32x2:little",
		"1x4+2x2:little+1x4", "2x2+1x4:little+3x1", "4x2:little+2x4"} {
		topos = append(topos, mustDesc(t, desc))
	}
	return append(topos, mixedClassTopology())
}

// TestBalancedPlacementsMatchReference: the sort-free generator lists the
// reference's names and cores in the reference's order, and its last
// placement is BalancedAllCores.
func TestBalancedPlacementsMatchReference(t *testing.T) {
	for _, topo := range balancedTopologies(t) {
		got, want := BalancedPlacements(topo), referenceBalanced(topo)
		if len(got) != len(want) {
			t.Fatalf("%s: %d placements, the reference has %d", topo.Name, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: placement %d is %v, the reference's is %v", topo.Name, i, got[i], want[i])
			}
		}
		if all := BalancedAllCores(topo); !reflect.DeepEqual(all, want[len(want)-1]) {
			t.Errorf("%s: BalancedAllCores = %v, the last placement is %v", topo.Name, all, want[len(want)-1])
		}
	}
}

// TestBalancedOccupancyStopsAtOnce: a yield returning false is the last call.
func TestBalancedOccupancyStopsAtOnce(t *testing.T) {
	for _, topo := range balancedTopologies(t) {
		for _, stop := range []int{1, 3} {
			calls := 0
			BalancedOccupancy(topo, func([]byte, int, []int) bool {
				calls++
				return calls < stop
			})
			if calls != stop {
				t.Errorf("%s: yield called %d times, it returned false on call %d", topo.Name, calls, stop)
			}
		}
	}
}
