package dist

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// State is a worker's position in the coordinator's health state machine:
//
//	Joining → Ready → Suspect → Dead
//	            ↑________|
//
// Workers start Joining and become Ready on a successful /readyz probe. A
// failed request (or a not-ready probe) moves a Ready worker to Suspect;
// any success moves a Suspect worker back to Ready; deadAfter consecutive
// failures moves it to Dead, which is terminal for the run. New shards are
// only assigned to Ready workers; Suspect and Joining workers are
// re-probed when the Ready pool empties.
type State int32

const (
	// Joining is the initial state: the worker is configured but has not
	// yet answered a readiness probe.
	Joining State = iota
	// Ready means the worker answered its latest probe or request and may
	// be assigned new shards.
	Ready
	// Suspect means the worker failed its latest request or reported
	// not-ready; it gets no new shards until a probe succeeds.
	Suspect
	// Dead means the worker accumulated deadAfter consecutive failures;
	// it is excluded for the remainder of the run.
	Dead
)

func (s State) String() string {
	switch s {
	case Joining:
		return "joining"
	case Ready:
		return "ready"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// worker is one remote actord the coordinator can assign shards to.
type worker struct {
	url string

	mu          sync.Mutex
	state       State
	consecFails int
	inflight    int
}

// snapshot returns the worker's current state.
func (w *worker) snapshot() State {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state
}

// markSuccess records a successful request or probe: the worker is Ready
// again whatever it was (Dead stays Dead — a run-terminal verdict keeps
// the scheduler from flapping on a worker that already burned its budget).
func (w *worker) markSuccess() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.state == Dead {
		return
	}
	w.state = Ready
	w.consecFails = 0
}

// markFailure records a failed request or probe and advances the state
// machine: Ready (or Joining) degrades to Suspect, and deadAfter
// consecutive failures degrade to Dead.
func (w *worker) markFailure() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.state == Dead {
		return
	}
	w.consecFails++
	if w.consecFails >= deadAfter {
		w.state = Dead
		return
	}
	w.state = Suspect
}

// acquire / release track in-flight assignments for least-loaded picking.
func (w *worker) acquire() {
	w.mu.Lock()
	w.inflight++
	w.mu.Unlock()
}

func (w *worker) release() {
	w.mu.Lock()
	w.inflight--
	w.mu.Unlock()
}

// load returns (state, inflight) atomically for scheduling decisions.
func (w *worker) loadSnapshot() (State, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state, w.inflight
}

// probe hits the worker's /readyz and advances the state machine with the
// outcome. A 503 (draining, loading) counts as a failure — the
// worker is alive but must not be handed work.
func (c *Coordinator) probe(ctx context.Context, w *worker) bool {
	pctx, cancel := context.WithTimeout(ctx, c.probeTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, w.url+"/readyz", nil)
	if err != nil {
		w.markFailure()
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		w.markFailure()
		return false
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.markFailure()
		return false
	}
	w.markSuccess()
	return true
}

func (c *Coordinator) probeTimeout() time.Duration {
	if t := c.opts.Timeout; t > 0 && t < 2*time.Second {
		return t
	}
	return 2 * time.Second
}

// probeAll probes every non-Dead worker and returns how many are Ready.
func (c *Coordinator) probeAll(ctx context.Context) int {
	ready := 0
	for _, w := range c.workers {
		if w.snapshot() == Dead {
			continue
		}
		if c.probe(ctx, w) {
			ready++
		}
	}
	return ready
}

// WorkerStatus is one worker's terminal health report.
type WorkerStatus struct {
	URL   string
	State State
}

// WorkerStates reports each configured worker's current state, in
// configuration order.
func (c *Coordinator) WorkerStates() []WorkerStatus {
	out := make([]WorkerStatus, len(c.workers))
	for i, w := range c.workers {
		out[i] = WorkerStatus{URL: w.url, State: w.snapshot()}
	}
	return out
}
