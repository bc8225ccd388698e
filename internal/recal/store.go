package recal

import "sync"

// MaxVals is the width of an observation's fixed rate vector, indexed by
// event id. It must be at least the platform's event catalogue size
// (pmu.NumEvents); keeping it a package constant keeps Obs a fixed-size
// value the store can copy without allocating.
const MaxVals = 16

// Obs is one sampled observation off the predict path: the request's rate
// vector (indexed by event id, with a presence mask), the observed IPC at
// the sampling configuration when the request carried one, the phase label
// hash, and the label-free prediction-error proxy the serving layer
// computed for the request.
type Obs struct {
	// Phase is HashPhase of the request's phase label.
	Phase uint64
	// Mask has bit e set when Vals[e] is present in the request.
	Mask uint64
	// Vals holds the observed per-cycle rates, indexed by event id.
	Vals [MaxVals]float64
	// IPC is the observed IPC at the sampling configuration; HasIPC
	// reports whether the request carried one.
	IPC    float64
	HasIPC bool
	// Err is the prediction-error proxy: the live bank's richest-vs-
	// most-reduced predictor disagreement on this request's rates.
	Err float64
}

// StoreConfig bounds a Store. Zero fields take the defaults.
type StoreConfig struct {
	// RefWindow is how many observations after a Reset form the reference
	// window drift is measured against. Default 256.
	RefWindow int
	// Window is the rolling current-traffic window compared against the
	// reference. Default 256.
	Window int
	// MaxPhases bounds the per-phase error table and the reference phase
	// set. Default 64.
	MaxPhases int
	// EWMAAlpha is the per-phase error EWMA smoothing factor. Default 0.05.
	EWMAAlpha float64
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.RefWindow <= 0 {
		c.RefWindow = 256
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.MaxPhases <= 0 {
		c.MaxPhases = 64
	}
	if c.EWMAAlpha <= 0 {
		c.EWMAAlpha = 0.05
	}
	return c
}

// winObs is one entry of the rolling current-traffic window.
type winObs struct {
	phase  uint64
	ipc    float64
	hasIPC bool
	// novel reports whether the phase was absent from the reference
	// window's phase set when this observation arrived.
	novel bool
	err   float64
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
// first RefWindow observations after arming), a rolling current window, and
// a bounded per-phase prediction-error EWMA table — the state drift
// detection reads. It keeps no sample of the observations themselves:
// retraining collects its own samples from the simulator. Observe is allocation-free
// and safe for concurrent use; all memory is bounded by StoreConfig.
type Store struct {
	cfg StoreConfig

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
	win   []winObs
	winN  int
	winAt int

	phases []phaseStat
}

// NewStore builds a store with every buffer preallocated to its bound, so
// Observe never allocates.
func NewStore(cfg StoreConfig) *Store {
	cfg = cfg.withDefaults()
	return &Store{
		cfg:       cfg,
		refPhases: make([]uint64, 0, cfg.MaxPhases),
		win:       make([]winObs, cfg.Window),
		phases:    make([]phaseStat, 0, cfg.MaxPhases),
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
			p.ewma += float64(s.cfg.EWMAAlpha * (o.Err - p.ewma))
			found = true
			break
		}
	}
	if !found && len(s.phases) < s.cfg.MaxPhases {
		s.phases = append(s.phases, phaseStat{hash: o.Phase, n: 1, ewma: o.Err})
	}

	if s.refN < s.cfg.RefWindow {
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
		if !known && len(s.refPhases) < s.cfg.MaxPhases {
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
		s.win[s.winAt] = winObs{phase: o.Phase, ipc: o.IPC, hasIPC: o.HasIPC, novel: novel, err: o.Err}
		s.winAt++
		if s.winAt == len(s.win) {
			s.winAt = 0
		}
		if s.winN < len(s.win) {
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
