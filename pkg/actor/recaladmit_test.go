package actor

import (
	"testing"

	"github.com/greenhpc/actor/internal/recal"
)

// TestRecalEventLogBounded: the event log keeps the newest maxRecalEvents
// events, oldest first.
func TestRecalEventLogBounded(t *testing.T) {
	r := &Recalibrator{}
	for i := 0; i < maxRecalEvents+40; i++ {
		r.recordLocked(recal.Event{Generation: i, Kind: "rejected"})
	}
	evs := r.events
	if len(evs) != maxRecalEvents {
		t.Fatalf("event log holds %d, bound is %d", len(evs), maxRecalEvents)
	}
	if evs[0].Generation != 40 || evs[len(evs)-1].Generation != maxRecalEvents+39 {
		t.Fatalf("retained generations %d..%d, want 40..%d",
			evs[0].Generation, evs[len(evs)-1].Generation, maxRecalEvents+39)
	}
}
