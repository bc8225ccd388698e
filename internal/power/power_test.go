package power

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/greenhpc/actor/internal/machine"
)

func activity(cores int, util, ipc, bus float64) machine.Activity {
	return machine.Activity{
		TimeSec:          1,
		ActiveCores:      cores,
		TotalCores:       4,
		AvgCoreIPC:       ipc,
		PeakIPC:          4,
		AvgCoreUtil:      util,
		BusUtilization:   bus,
		L2AccessesPerSec: 1e8,
	}
}

func TestPowerAboveBase(t *testing.T) {
	m := Default()
	p := m.Power(activity(1, 0.5, 1, 0.1))
	if p <= m.BaseWatts {
		t.Errorf("power %g not above base %g", p, m.BaseWatts)
	}
}

func TestPowerMonotoneInCores(t *testing.T) {
	m := Default()
	prev := 0.0
	for cores := 0; cores <= 4; cores++ {
		p := m.Power(activity(cores, 0.5, 1, 0.2))
		if p < prev {
			t.Errorf("power decreased with more cores: %g → %g", prev, p)
		}
		prev = p
	}
}

func TestPowerMonotoneInUtilAndIPC(t *testing.T) {
	m := Default()
	if m.Power(activity(4, 0.2, 1, 0)) >= m.Power(activity(4, 0.9, 1, 0)) {
		t.Error("power not increasing in utilisation")
	}
	if m.Power(activity(4, 0.5, 0.5, 0)) >= m.Power(activity(4, 0.5, 3, 0)) {
		t.Error("power not increasing in IPC")
	}
	if m.Power(activity(4, 0.5, 1, 0)) >= m.Power(activity(4, 0.5, 1, 0.9)) {
		t.Error("power not increasing in bus utilisation")
	}
}

func TestPowerIPCRelClamped(t *testing.T) {
	m := Default()
	// Absurd IPC must not blow up power beyond the linear bound.
	p1 := m.Power(activity(4, 1, 4, 0))
	p2 := m.Power(activity(4, 1, 400, 0))
	if p1 != p2 {
		t.Errorf("IPC relative term not clamped: %g vs %g", p1, p2)
	}
}

func TestPowerPositiveQuick(t *testing.T) {
	m := Default()
	f := func(cores uint8, util, ipc, bus float64) bool {
		a := activity(int(cores%5), math.Mod(math.Abs(util), 1), math.Abs(ipc), math.Mod(math.Abs(bus), 1))
		p := m.Power(a)
		return p >= m.BaseWatts && !math.IsNaN(p) && !math.IsInf(p, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergy(t *testing.T) {
	m := Default()
	a := activity(2, 0.5, 1, 0.1)
	a.TimeSec = 3
	if got, want := m.Energy(a), m.Power(a)*3; got != want {
		t.Errorf("Energy = %g, want %g", got, want)
	}
}

func TestAccumulator(t *testing.T) {
	var acc Accumulator
	if acc.AvgPower() != 0 {
		t.Error("empty accumulator has non-zero average power")
	}
	acc.Add(2, 100)
	acc.Add(3, 150)
	if acc.TimeSec != 5 {
		t.Errorf("TimeSec = %g", acc.TimeSec)
	}
	if acc.EnergyJ != 2*100+3*150 {
		t.Errorf("EnergyJ = %g", acc.EnergyJ)
	}
	wantAvg := (200.0 + 450.0) / 5
	if math.Abs(acc.AvgPower()-wantAvg) > 1e-12 {
		t.Errorf("AvgPower = %g, want %g", acc.AvgPower(), wantAvg)
	}
	if got, want := acc.ED2(), acc.EnergyJ*25; math.Abs(got-want) > 1e-9 {
		t.Errorf("ED2 = %g, want %g", got, want)
	}
}
