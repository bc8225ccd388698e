package machine

import "testing"

// BenchmarkSweepLanes drives the bound lane kernel (scalar or AVX2, see
// lanes.go) through 16 fixed-point iteration steps over a synthetic block
// of 64 lanes, folding the final per-lane contributions into a checksum so
// the work cannot be optimized away.
func BenchmarkSweepLanes(b *testing.B) {
	const n, iters = 64, 16
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		ls := &laneState{}
		for j := 0; j < n; j++ {
			f := 1 + float64(j%7)/7
			ls.append(0.4+0.1*f, 180*f, 0.004*f, 1.0/4, f, 1, 0)
		}
		ls.sizeDerived()
		for j := range ls.bus {
			ls.bus[j] = 1 + float64(j%5)/4
		}
		for it := 0; it < iters; it++ {
			advanceLanes(ls, 0.65, 1.5, 2.1e9, 64)
			for j := range ls.bus {
				ls.bus[j] = 0.5*ls.bus[j] + 0.5*(1+ls.contrib[j]/1e9)
			}
		}
		for _, c := range ls.contrib {
			sink += c
		}
	}
	_ = sink
}
