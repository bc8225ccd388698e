// Package power models full-system power and energy, substituting for the
// paper's Watts Up Pro wall meter. Reported power covers CPU, memory,
// chipset and power supply — "a full system power profile" — so the model
// has a large base term plus activity-proportional core, cache and bus/DRAM
// terms.
//
// The calibration targets are the paper's quoted facts: total system power
// at four cores ≈ 14% above one core on average; the best-scaling code (BT)
// near ×1.31; bandwidth-bound codes nearly flat because stalled cores burn
// little dynamic power while the bus/DRAM term is already saturated.
//
// Every product that feeds an add is wrapped in an explicit float64(...)
// conversion, which forces its rounding: Go may fuse a*b + c into one FMA
// where the target has one (go1.24 does on arm64, not on amd64), and the
// energy totals would then differ between the two in the last bits.
// `make fma-check` fails on any fused instruction left in the listing.
package power

import (
	"math"

	"github.com/greenhpc/actor/internal/machine"
)

// Model holds the coefficients of the full-system power model.
type Model struct {
	// BaseWatts is the constant floor: PSU losses, fans, disks, chipset
	// and all cores in idle state.
	BaseWatts float64
	// StaticPerCoreWatts is the extra leakage/clock power of a core that
	// is running a thread at all (vs deep idle).
	StaticPerCoreWatts float64
	// DynPerCoreWatts scales with core utilisation and relative IPC: the
	// switching power of a fully busy, high-ILP core.
	DynPerCoreWatts float64
	// L2Watts is the maximum additional power of a fully-busy shared L2.
	L2Watts float64
	// L2RefRateFull is the L2 access rate (accesses/sec) treated as full
	// L2 busyness.
	L2RefRateFull float64
	// BusWatts is the maximum additional bus+DRAM+chipset I/O power at
	// full FSB utilisation — the off-chip term that erases ACTOR's power
	// savings when migrations refill caches.
	BusWatts float64
}

// Default returns coefficients calibrated for the QX6600 workstation.
func Default() *Model {
	return &Model{
		BaseWatts:          103,
		StaticPerCoreWatts: 2.0,
		DynPerCoreWatts:    28,
		L2Watts:            3,
		L2RefRateFull:      4e8,
		BusWatts:           8,
	}
}

// Power returns the modelled full-system power in watts for an activity
// interval.
func (m *Model) Power(a machine.Activity) float64 {
	p := m.BaseWatts
	ipcRel := 0.0
	if a.PeakIPC > 0 {
		ipcRel = a.AvgCoreIPC / a.PeakIPC
	}
	if ipcRel > 1 {
		ipcRel = 1
	}
	// DVFS: dynamic power scales ≈ f·V² with V ≈ f (cubic); leakage
	// scales with voltage (linear in f to first order). FreqScale zero
	// means nominal.
	fs := a.FreqScale
	if fs <= 0 {
		fs = 1
	}
	perCore := float64(m.StaticPerCoreWatts*fs) + float64(m.DynPerCoreWatts*fs*fs*fs*a.AvgCoreUtil*(0.3+float64(0.7*ipcRel)))
	p += float64(float64(a.ActiveCores) * perCore)

	l2Busy := 0.0
	if m.L2RefRateFull > 0 {
		l2Busy = math.Min(a.L2AccessesPerSec/m.L2RefRateFull, 1)
	}
	p += float64(m.L2Watts * l2Busy)
	p += float64(m.BusWatts * a.BusUtilization)
	return p
}

// Energy returns power × time for the interval, in joules.
func (m *Model) Energy(a machine.Activity) float64 {
	return m.Power(a) * a.TimeSec
}

// Accumulator integrates energy and time over a run, producing the metrics
// the paper reports: time, average power, energy and ED².
type Accumulator struct {
	TimeSec float64
	EnergyJ float64
}

// Add integrates one interval at the given power.
func (ac *Accumulator) Add(timeSec, watts float64) {
	// Callers pass products (time × iterations); once Add is inlined the
	// conversion keeps that product from fusing into the sum.
	ac.TimeSec += float64(timeSec)
	ac.EnergyJ += float64(watts * timeSec)
}

// AvgPower returns energy/time, or 0 for an empty accumulator.
func (ac *Accumulator) AvgPower() float64 {
	if ac.TimeSec <= 0 {
		return 0
	}
	return ac.EnergyJ / ac.TimeSec
}

// ED2 returns the energy-delay-squared product E·T², the power-aware HPC
// metric the paper emphasises.
func (ac *Accumulator) ED2() float64 {
	return ac.EnergyJ * ac.TimeSec * ac.TimeSec
}
