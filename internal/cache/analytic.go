// Package cache models shared last-level caches two ways: a fast analytic
// capacity-sharing model used inside the machine simulator's fixed-point
// CPI solver, and an executable set-associative cache used in tests to
// validate the analytic curve's shape on concrete reference streams.
//
// The analytic model captures the quad-core Xeon phenomenon at the heart of
// the paper: two threads sharing one 4 MB L2 ("tightly coupled") divide its
// effective capacity and can interfere destructively, while threads on
// different L2s ("loosely coupled") do not — the reason configuration 2b
// beats 2a by 2× on IS.
package cache

import (
	"fmt"
	"math"
)

// SharingModel computes per-thread L2 miss rates under capacity sharing.
type SharingModel struct {
	// CapacityBytes is the cache capacity shared by the group.
	CapacityBytes float64
	// LineBytes is the cache line size (64 on Core 2).
	LineBytes float64
}

// NewSharingModel returns a sharing model for a cache of the given capacity
// with 64-byte lines.
func NewSharingModel(capacityBytes float64) *SharingModel {
	return &SharingModel{CapacityBytes: capacityBytes, LineBytes: 64}
}

// EffectiveShare returns the cache capacity effectively available to one of
// nShare co-resident threads when a fraction sharing of their working sets
// overlaps. With full sharing every thread sees the whole cache; with no
// sharing capacity divides evenly.
func (m *SharingModel) EffectiveShare(nShare int, sharing float64) float64 {
	if nShare < 1 {
		nShare = 1
	}
	if sharing < 0 {
		sharing = 0
	} else if sharing > 1 {
		sharing = 1
	}
	// Distinct footprint in the cache scales as 1 + (n-1)(1-sharing);
	// each thread's useful share is capacity divided by that pressure.
	pressure := 1 + float64(float64(nShare-1)*(1-sharing))
	return m.CapacityBytes / pressure
}

// MissRate returns the fraction of L2 accesses (i.e. L1 misses) that miss in
// the shared L2 for a thread whose working set is ws bytes, given its
// effective capacity share. cold is the compulsory floor; locExp shapes how
// quickly misses grow once the working set exceeds the share (the
// reuse-distance tail exponent).
//
// The curve is the classic power-law capacity model: hit probability for a
// working set of size ws in a cache of size c behaves like (c/ws)^locExp for
// ws > c and approaches 1 for ws ≤ c, blended smoothly near the knee.
func (m *SharingModel) MissRate(ws, share, cold, locExp float64) float64 {
	if ws <= 0 {
		return clamp01(cold)
	}
	if share <= 0 {
		return 1
	}
	ratio := ws / share
	var capMiss float64
	switch {
	case ratio <= 1:
		// Fits: only a gentle rise as occupancy approaches capacity,
		// modelling conflict misses near the knee.
		capMiss = 0.02 * math.Pow(ratio, 4)
	default:
		// Exceeds share: miss rate rises toward 1 with the locality
		// exponent controlling steepness.
		capMiss = 1 - float64(math.Pow(1/ratio, locExp)*(1-0.02))
	}
	miss := cold + float64((1-cold)*clamp01(capMiss))
	return clamp01(miss)
}

// MissRateShared is the common composition: effective share for nShare
// threads with the given sharing factor, then the miss curve.
func (m *SharingModel) MissRateShared(ws float64, nShare int, sharing, cold, locExp float64) float64 {
	return m.MissRate(ws, m.EffectiveShare(nShare, sharing), cold, locExp)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// String describes the model.
func (m *SharingModel) String() string {
	return fmt.Sprintf("cache.SharingModel{%.0f KB, %g B lines}", m.CapacityBytes/1024, m.LineBytes)
}
