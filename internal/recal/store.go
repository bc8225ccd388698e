package recal

import "sync"

// Obs is one sampled observation off the predict path: the observed IPC at
// the sampling configuration when the request carried one, the phase label
// hash, and the label-free prediction-error proxy the serving layer
// computed for the request.
type Obs struct {
	// Phase is HashPhase of the request's phase label.
	Phase uint64
	// Mask is filled by nothing and read by nothing. It remains only
	// because the benchmark module's observe probe sets it; it goes with
	// the next change to that module.
	Mask uint64
	// IPC is the observed IPC at the sampling configuration; HasIPC
	// reports whether the request carried one.
	IPC    float64
	HasIPC bool
	// Err is the prediction-error proxy: the live bank's richest-vs-
	// most-reduced predictor disagreement on this request's rates.
	Err float64
}

// The store's bounds.
const (
	// refWindow is how many observations after a Reset form the reference
	// window drift is measured against.
	refWindow = 256
	// window is the rolling current-traffic window compared against the
	// reference.
	window = 256
	// maxPhases bounds the per-phase error table and the reference phase
	// set.
	maxPhases = 64
	// ewmaAlpha is the per-phase error EWMA smoothing factor.
	ewmaAlpha = 0.05
)

// StoreConfig has no fields: every bound of a Store is a constant. It
// remains only because the benchmark module's observe probe builds its
// store with NewStore(StoreConfig{}); it goes with the next change to that
// module.
type StoreConfig struct{}

// winObs is one entry of the rolling current-traffic window.
type winObs struct {
	ipc    float64
	hasIPC bool
	// novel reports whether the phase was absent from the reference
	// window's phase set when this observation arrived.
	novel bool
}

// phaseStat is one phase's running prediction-error EWMA.
type phaseStat struct {
	hash uint64
	n    uint64
	ewma float64
}

// PhaseErr is a phase error statistic as reported by Phases.
type PhaseErr struct {
	Hash    uint64  `json:"phase_hash"`
	Count   uint64  `json:"count"`
	ErrEWMA float64 `json:"err_ewma"`
}

// Store is the bounded observation store: a frozen reference window (the
// first refWindow observations after arming), a rolling current window, and
// a bounded per-phase prediction-error EWMA table — the state drift
// detection reads. It keeps no sample of the observations themselves:
// retraining collects its own samples from the simulator. Observe is
// allocation-free and safe for concurrent use; all memory is bounded by
// the constants above.
type Store struct {
	mu    sync.Mutex
	total uint64 // observations over the store's lifetime (never reset)
	seq   uint64 // observations since the last Reset

	// Reference window: Welford IPC statistics plus the phase set.
	refN      int
	refIPCN   int
	refMean   float64
	refM2     float64
	refPhases []uint64

	// Rolling current window (ring buffer).
	win   [window]winObs
	winN  int
	winAt int

	phases []phaseStat
}

// NewStore builds a store with every buffer preallocated to its bound, so
// Observe never allocates.
func NewStore(StoreConfig) *Store {
	return &Store{
		refPhases: make([]uint64, 0, maxPhases),
		phases:    make([]phaseStat, 0, maxPhases),
	}
}

// Observe records one observation: per-phase error EWMA, and
// reference-then-rolling window accounting. Allocation-free.
// Returns the observation's lifetime sequence number (1-based, monotonic
// across Resets) — the logical clock canary admission and event records
// key on.
func (s *Store) Observe(o Obs) uint64 {
	s.mu.Lock()
	s.total++
	s.seq++

	found := false
	for i := range s.phases {
		if s.phases[i].hash == o.Phase {
			p := &s.phases[i]
			p.n++
			p.ewma += float64(ewmaAlpha * (o.Err - p.ewma))
			found = true
			break
		}
	}
	if !found && len(s.phases) < maxPhases {
		s.phases = append(s.phases, phaseStat{hash: o.Phase, n: 1, ewma: o.Err})
	}

	if s.refN < refWindow {
		// Still arming: this observation belongs to the reference window.
		s.refN++
		if o.HasIPC {
			s.refIPCN++
			d := o.IPC - s.refMean
			s.refMean += d / float64(s.refIPCN)
			s.refM2 += float64(d * (o.IPC - s.refMean))
		}
		known := false
		for _, h := range s.refPhases {
			if h == o.Phase {
				known = true
				break
			}
		}
		if !known && len(s.refPhases) < maxPhases {
			s.refPhases = append(s.refPhases, o.Phase)
		}
	} else {
		novel := true
		for _, h := range s.refPhases {
			if h == o.Phase {
				novel = false
				break
			}
		}
		s.win[s.winAt] = winObs{ipc: o.IPC, hasIPC: o.HasIPC, novel: novel}
		s.winAt++
		if s.winAt == window {
			s.winAt = 0
		}
		if s.winN < window {
			s.winN++
		}
	}
	total := s.total
	s.mu.Unlock()
	return total
}

// Reset re-arms the store after a bank promotion, rejection or rollback:
// the reference window, rolling window and phase table start over against
// the new model, so drift is always measured relative to the traffic the
// current bank generation started serving under. The lifetime observation
// counter continues — resetting at a deterministic point keeps everything
// downstream deterministic.
func (s *Store) Reset() {
	s.mu.Lock()
	s.seq = 0
	s.refN, s.refIPCN = 0, 0
	s.refMean, s.refM2 = 0, 0
	s.refPhases = s.refPhases[:0]
	s.winN, s.winAt = 0, 0
	s.phases = s.phases[:0]
	s.mu.Unlock()
}

// Total returns the lifetime observation count (monotonic across Resets).
func (s *Store) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Seq returns the observation count since the last Reset.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Phases returns a copy of the per-phase error table in first-seen order.
func (s *Store) Phases() []PhaseErr {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PhaseErr, 0, len(s.phases))
	for _, p := range s.phases {
		out = append(out, PhaseErr{Hash: p.hash, Count: p.n, ErrEWMA: p.ewma})
	}
	return out
}
