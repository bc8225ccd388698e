package recal

// Snapshot is the wire shape of GET /v1/recal/status: the loop's state,
// the store's counters and phase error table, the latest drift verdict,
// canary progress, and the bounded event history. Every field is a
// deterministic function of the observation sequence — no wall-clock
// timestamps — so status bodies from a seeded serial trace are
// byte-identical across runs.
type Snapshot struct {
	Enabled bool `json:"enabled"`
	// State is "canary" while a validated candidate is shadow-scored, else
	// "idle".
	State string `json:"state"`
	// Generation is the live bank's generation; History is how many prior
	// generations are retained for rollback.
	Generation int `json:"generation"`
	History    int `json:"history"`
	// Observed counts lifetime observations; WindowSeq counts since the
	// last re-arm (promotion, rejection or rollback).
	Observed  uint64 `json:"observed"`
	WindowSeq uint64 `json:"window_seq"`
	// Drift is the verdict CheckDrift returns right now.
	Drift Verdict `json:"drift"`
	// Phases is the per-phase prediction-error EWMA table.
	Phases []PhaseErr `json:"phases,omitempty"`
	Canary Canary     `json:"canary"`
	Events []Event    `json:"events,omitempty"`
}

// Canary reports canary-mode progress.
type Canary struct {
	// Frac is the configured shadow-scoring fraction.
	Frac float64 `json:"frac"`
	// Scored and Failed count shadow predictions on the candidate since
	// the canary began.
	Scored uint64 `json:"scored"`
	Failed uint64 `json:"failed"`
}

// Event is one recalibration lifecycle record. Events carry the lifetime
// observation sequence number as their logical clock instead of wall time,
// so the event log of a seeded traffic trace is byte-for-byte reproducible.
type Event struct {
	// Seq is the store's lifetime observation count when the event fired.
	Seq uint64 `json:"seq"`
	// Generation is the bank generation the event concerns.
	Generation int `json:"generation"`
	// Kind is one of "promoted", "rejected", "canary-begin",
	// "canary-abort" or "rollback".
	Kind string `json:"kind"`
	// Trigger records what started the attempt ("manual", or "drift:" plus
	// the detector's reason).
	Trigger string `json:"trigger,omitempty"`
	// Detail is a human-readable note (rejection reasons and the like).
	Detail string `json:"detail,omitempty"`
	// CandidateErr and LiveErr are the holdout median relative errors the
	// accept/reject decision compared (zero on events with no validation).
	CandidateErr float64 `json:"candidate_err,omitempty"`
	LiveErr      float64 `json:"live_err,omitempty"`
}
