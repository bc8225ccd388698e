package recal

import (
	"math"
	"sync"
	"sync/atomic"
)

// State is the recalibration state machine: Idle (watching for drift),
// Training (a shadow retrain is running), Canary (a validated candidate is
// shadow-scoring a fraction of live traffic before promotion).
type State int32

const (
	StateIdle State = iota
	StateTraining
	StateCanary
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateTraining:
		return "training"
	case StateCanary:
		return "canary"
	}
	return "unknown"
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

// maxEvents bounds the retained event history; older events are dropped.
const maxEvents = 64

// Controller is the control-plane bookkeeping of the recalibration loop:
// the state machine, the bounded event log, and lock-free canary
// admission. The serving layer owns the actual retraining and swapping.
type Controller struct {
	mu     sync.Mutex
	state  State
	events []Event

	// canaryThresh is the admission threshold over the full uint64 range
	// (0 = canary off); canarySalt seeds the admission hash so different
	// deployments sample different request subsequences deterministically.
	canaryThresh atomic.Uint64
	canarySalt   uint64

	// Scored and Failed count canary shadow predictions since BeginCanary.
	Scored atomic.Uint64
	Failed atomic.Uint64
}

// NewController builds a controller whose canary admission hash is salted
// with seed.
func NewController(seed int64) *Controller {
	return &Controller{canarySalt: splitmix64(uint64(seed))}
}

// State returns the current state.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// SetState moves the machine unconditionally.
func (c *Controller) SetState(s State) {
	c.mu.Lock()
	c.state = s
	c.mu.Unlock()
}

// Record appends ev to the bounded event log.
func (c *Controller) Record(ev Event) {
	c.mu.Lock()
	if len(c.events) == maxEvents {
		copy(c.events, c.events[1:])
		c.events = c.events[:maxEvents-1]
	}
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a copy of the event log, oldest first.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// BeginCanary arms canary admission at the given traffic fraction and
// zeroes the shadow-scoring counters.
func (c *Controller) BeginCanary(frac float64) {
	c.Scored.Store(0)
	c.Failed.Store(0)
	switch {
	case frac <= 0:
		c.canaryThresh.Store(0)
	case frac >= 1:
		c.canaryThresh.Store(math.MaxUint64)
	default:
		c.canaryThresh.Store(uint64(frac * float64(math.MaxUint64)))
	}
}

// EndCanary disarms canary admission.
func (c *Controller) EndCanary() { c.canaryThresh.Store(0) }

// CanaryAdmit reports whether the observation with lifetime sequence
// number seq is shadow-scored on the candidate. Lock-free — this runs on
// the predict hot path — and a pure function of (seq, salt, threshold),
// so a seeded serial trace always samples the same requests.
func (c *Controller) CanaryAdmit(seq uint64) bool {
	t := c.canaryThresh.Load()
	return t != 0 && splitmix64(seq^c.canarySalt) < t
}
