//go:build amd64 && !actor_noasm

package machine

import "github.com/greenhpc/actor/internal/simd"

func init() {
	if simd.Enabled() {
		advanceLanes = advanceLanesAVX2
	}
}

//go:noescape
func advanceLanes4(base, pfx, q, min, divf, bus, cpi, contrib *float64, n int, prefetchHide, mlp, freq, tpm float64)

// advanceLanesAVX2 advances four lanes per instruction and finishes the
// tail with the scalar reference's loop body. The vector interior ignores
// the done mask: a retired lane's inputs are frozen, so recomputing it
// reproduces the exact bits it already holds (see lanes.go).
func advanceLanesAVX2(ls *laneState, prefetchHide, mlp, freq, trafficPerMiss float64) {
	n := ls.len()
	n4 := n &^ 3
	if n4 > 0 {
		advanceLanes4(&ls.base[0], &ls.pfx[0], &ls.q[0], &ls.min[0], &ls.divf[0],
			&ls.bus[0], &ls.cpi[0], &ls.contrib[0], n4,
			prefetchHide, mlp, freq, trafficPerMiss)
	}
	for l := n4; l < n; l++ {
		if ls.done[l] {
			continue
		}
		memLat := ls.pfx[l] * ls.bus[l] * prefetchHide
		cpi := ls.base[l] + ls.q[l]*memLat/mlp
		if cpi < ls.min[l] {
			cpi = ls.min[l]
		}
		cpi = cpi / ls.divf[l]
		ls.cpi[l] = cpi
		ls.contrib[l] = ls.q[l] * (freq / cpi) * trafficPerMiss
	}
}
