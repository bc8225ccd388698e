package recal

import "math"

// The drift detector's trip thresholds.
const (
	// novelFracTrip trips when at least this fraction of the current
	// window's observations carry a phase label absent from the reference
	// window — the workload mix itself changed.
	novelFracTrip = 0.25
	// meanShiftZTrip trips when the current window's mean observed IPC is
	// this many reference standard deviations away from the reference mean
	// — a distribution shift in the input rates.
	meanShiftZTrip = 4
	// errEWMATrip trips when any phase's prediction-error EWMA, with at
	// least minPhaseObs observations behind it, reaches it.
	errEWMATrip = 0.5
	// minPhaseObs is the burn-in before a phase's EWMA may trip.
	minPhaseObs = 32
	// minWindowIPC is how many window observations must carry an observed
	// IPC before the mean-shift statistic is trusted.
	minWindowIPC = 16
)

// Verdict is one drift evaluation: whether the retrain trigger tripped,
// why, and the statistics behind the decision.
type Verdict struct {
	Tripped bool   `json:"tripped"`
	Reason  string `json:"reason,omitempty"`
	// Armed reports whether the reference window has filled since the last
	// Reset; WindowFull whether the rolling window has, too. Drift is only
	// ever declared with both full.
	Armed      bool    `json:"armed"`
	WindowFull bool    `json:"window_full"`
	NovelFrac  float64 `json:"novel_frac"`
	MeanShiftZ float64 `json:"mean_shift_z"`
	MaxErrEWMA float64 `json:"max_err_ewma"`
}

// CheckDrift evaluates the detector against the store's current state.
// Purely a read: calling it never perturbs future verdicts, so the control
// loop may poll at any cadence without changing what is detected.
func (s *Store) CheckDrift() Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()

	v := Verdict{
		Armed:      s.refN >= refWindow,
		WindowFull: s.winN == window,
	}
	for i := range s.phases {
		p := &s.phases[i]
		if p.n >= minPhaseObs && p.ewma > v.MaxErrEWMA {
			v.MaxErrEWMA = p.ewma
		}
	}
	if !v.Armed || !v.WindowFull {
		return v
	}

	novel := 0
	ipcN := 0
	var ipcSum float64
	for i := 0; i < s.winN; i++ {
		w := &s.win[i]
		if w.novel {
			novel++
		}
		if w.hasIPC {
			ipcN++
			ipcSum += w.ipc
		}
	}
	v.NovelFrac = float64(novel) / float64(s.winN)
	if ipcN >= minWindowIPC && s.refIPCN >= 2 {
		refStd := math.Sqrt(s.refM2 / float64(s.refIPCN-1))
		v.MeanShiftZ = math.Abs(ipcSum/float64(ipcN)-s.refMean) / math.Max(refStd, 1e-9)
	}

	switch {
	case v.MaxErrEWMA >= errEWMATrip:
		v.Tripped, v.Reason = true, "error-ewma"
	case v.NovelFrac >= novelFracTrip:
		v.Tripped, v.Reason = true, "novel-phase"
	case v.MeanShiftZ >= meanShiftZTrip:
		v.Tripped, v.Reason = true, "mean-shift"
	}
	return v
}
