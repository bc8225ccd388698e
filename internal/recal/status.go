package recal

// Snapshot is the wire shape of GET /v1/recal/status: the live generation,
// how many prior generations rollback can reach, and the bounded event
// history. No field carries a wall-clock timestamp, so the same sequence of
// triggers and rollbacks yields byte-identical status bodies.
type Snapshot struct {
	Enabled bool `json:"enabled"`
	// Generation is the live bank's generation; History is how many prior
	// generations are retained for rollback.
	Generation int     `json:"generation"`
	History    int     `json:"history"`
	Events     []Event `json:"events,omitempty"`
}

// Event is one recalibration lifecycle record, in the order the events
// fired.
type Event struct {
	// Generation is the bank generation the event concerns.
	Generation int `json:"generation"`
	// Kind is one of "promoted", "rejected" or "rollback".
	Kind string `json:"kind"`
	// Trigger records what started the attempt ("manual").
	Trigger string `json:"trigger,omitempty"`
	// Detail is a human-readable note (rejection reasons and the like).
	Detail string `json:"detail,omitempty"`
	// CandidateErr and LiveErr are the holdout median relative errors the
	// accept/reject decision compared (zero on events with no validation).
	CandidateErr float64 `json:"candidate_err,omitempty"`
	LiveErr      float64 `json:"live_err,omitempty"`
}
