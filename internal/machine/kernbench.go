// Exported sweep-lane kernel surface for the root benchmark suite: runs
// whatever advanceLanes implementation the dispatch in lanes.go (and, on
// capable amd64 machines, lanes_amd64.go) bound at startup.
package machine

// AdvanceLanesBench performs iters fixed-point iteration steps over a
// synthetic block of n lanes with the bound lane kernel and returns a
// checksum of the final per-lane contributions (so the work cannot be
// optimized away). Deterministic in (n, iters).
func AdvanceLanesBench(n, iters int) float64 {
	ls := &laneState{}
	for i := 0; i < n; i++ {
		f := 1 + float64(i%7)/7
		ls.append(0.4+0.1*f, 180*f, 0.004*f, 1.0/4, f, 1, 0)
	}
	ls.sizeDerived()
	for i := range ls.bus {
		ls.bus[i] = 1 + float64(i%5)/4
	}
	for it := 0; it < iters; it++ {
		advanceLanes(ls, 0.65, 1.5, 2.1e9, 64)
		for i := range ls.bus {
			ls.bus[i] = 0.5*ls.bus[i] + 0.5*(1+ls.contrib[i]/1e9)
		}
	}
	var sum float64
	for _, c := range ls.contrib {
		sum += c
	}
	return sum
}
