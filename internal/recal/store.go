package recal

import "sync"

// Obs is one observation of a predict request: the phase label hash, the
// observed IPC at the sampling configuration when the request carried one,
// and a prediction-error value.
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
	// Err is the request's prediction error, folded into its phase's EWMA.
	Err float64
}

// The store's bounds.
const (
	// refWindow is how many observations form the reference window.
	refWindow = 256
	// window is the rolling current-traffic window.
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

// Store is the bounded observation store: a frozen reference window (the
// first refWindow observations), a rolling current window, and a bounded
// per-phase prediction-error EWMA table. Nothing in the module feeds or
// reads one: it remains only because the benchmark module builds one and
// times Observe, and it goes with the next change to that module. Observe
// is allocation-free and safe for concurrent use; all memory is bounded by
// the constants above.
type Store struct {
	mu    sync.Mutex
	total uint64 // observations over the store's lifetime
	seq   uint64 // equal to total: nothing re-arms a Store

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
// Returns the observation's lifetime sequence number (1-based).
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
