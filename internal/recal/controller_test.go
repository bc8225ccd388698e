package recal

import "testing"

func TestCanaryAdmissionFraction(t *testing.T) {
	c := NewController(42)
	c.BeginCanary(0.25)
	admitted := 0
	const n = 20000
	for seq := uint64(0); seq < n; seq++ {
		if c.CanaryAdmit(seq) {
			admitted++
		}
	}
	frac := float64(admitted) / n
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("admitted %.3f of requests at frac 0.25", frac)
	}
	// Deterministic: the same salt admits the same request subsequence.
	c2 := NewController(42)
	c2.BeginCanary(0.25)
	for seq := uint64(0); seq < 1000; seq++ {
		if c.CanaryAdmit(seq) != c2.CanaryAdmit(seq) {
			t.Fatalf("admission diverged at seq %d under the same seed", seq)
		}
	}
	c.EndCanary()
	for seq := uint64(0); seq < 1000; seq++ {
		if c.CanaryAdmit(seq) {
			t.Fatal("admission after EndCanary")
		}
	}
}

func TestCanaryAdmissionEdges(t *testing.T) {
	c := NewController(1)
	c.BeginCanary(0)
	if c.CanaryAdmit(7) {
		t.Fatal("frac 0 admitted a request")
	}
	c.BeginCanary(1)
	for seq := uint64(0); seq < 100; seq++ {
		if !c.CanaryAdmit(seq) {
			t.Fatalf("frac 1 skipped seq %d", seq)
		}
	}
}

func TestControllerEventLogBounded(t *testing.T) {
	c := NewController(1)
	for i := 0; i < maxEvents+40; i++ {
		c.Record(Event{Seq: uint64(i), Kind: "rejected"})
	}
	evs := c.Events()
	if len(evs) != maxEvents {
		t.Fatalf("event log holds %d, bound is %d", len(evs), maxEvents)
	}
	if evs[len(evs)-1].Seq != uint64(maxEvents+39) {
		t.Fatalf("newest event seq = %d, want %d", evs[len(evs)-1].Seq, maxEvents+39)
	}
	if evs[0].Seq != 40 {
		t.Fatalf("oldest retained seq = %d, want 40", evs[0].Seq)
	}
}

func TestControllerStateMachine(t *testing.T) {
	c := NewController(1)
	if c.State() != StateIdle {
		t.Fatalf("initial state = %v", c.State())
	}
	if !c.CompareAndSetState(StateIdle, StateTraining) {
		t.Fatal("idle → training refused")
	}
	if c.CompareAndSetState(StateIdle, StateCanary) {
		t.Fatal("idle → canary succeeded from training")
	}
	c.SetState(StateCanary)
	if got := c.State().String(); got != "canary" {
		t.Fatalf("state string = %q", got)
	}
}

// CompareAndSetState moves from → to atomically, reporting whether it did.
func (c *Controller) CompareAndSetState(from, to State) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != from {
		return false
	}
	c.state = to
	return true
}
