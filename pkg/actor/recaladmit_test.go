package actor

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/greenhpc/actor/internal/recal"
)

// admittedSeqsSHA256 pins which of the observation seqs 1..20000 a
// frac-0.25 canary on a seed-42 bank shadow-scores: the sha256 of the
// admitted seqs as little-endian uint64s, in order. The salt derivation,
// the threshold formula and the hash all feed it, so a change to any of
// them samples different requests and moves the pin.
const admittedSeqsSHA256 = "b1c58c33edc4c8e7f4cf4579fa390ff2741172aa672dd6a9c349e9dd1656548f"

// TestCanaryAdmissionFraction: a quarter-traffic canary admits about a
// quarter of the observations, the same ones on every Recalibrator over a
// bank of the same seed, and none once the canary ends.
func TestCanaryAdmissionFraction(t *testing.T) {
	eng, err := New(WithFast(), WithRepetitions(1), WithMLR())
	if err != nil {
		t.Fatal(err)
	}
	bank, err := eng.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if seed := bank.Meta().Seed; seed != 42 {
		t.Fatalf("bank seed = %d, the pin is taken at 42", seed)
	}
	enable := func() *Recalibrator {
		srv, err := NewServer(eng)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		r, err := srv.EnableRecalibration(RecalConfig{CanaryFrac: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		r.armCanary(0.25)
		return r
	}
	r, r2 := enable(), enable()

	const n = 20000
	h := sha256.New()
	var b [8]byte
	admitted := 0
	for seq := uint64(1); seq <= n; seq++ {
		in := r.admit(seq)
		if in != r2.admit(seq) {
			t.Fatalf("admission diverged at seq %d under the same bank seed", seq)
		}
		if in {
			admitted++
			binary.LittleEndian.PutUint64(b[:], seq)
			h.Write(b[:])
		}
	}
	if frac := float64(admitted) / n; frac < 0.2 || frac > 0.3 {
		t.Fatalf("admitted %.3f of requests at frac 0.25", frac)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != admittedSeqsSHA256 {
		t.Fatalf("admitted seqs hash %s, pinned %s (%d admitted)", got, admittedSeqsSHA256, admitted)
	}

	r.endCanary()
	for seq := uint64(1); seq <= 1000; seq++ {
		if r.admit(seq) {
			t.Fatalf("seq %d admitted after the canary ended", seq)
		}
	}
}

// TestCanaryAdmissionEdges: fraction 0 admits nothing, fraction 1 admits
// every observation.
func TestCanaryAdmissionEdges(t *testing.T) {
	r := &Recalibrator{salt: splitmix64(1)}
	r.armCanary(0)
	for seq := uint64(0); seq < 100; seq++ {
		if r.admit(seq) {
			t.Fatalf("frac 0 admitted seq %d", seq)
		}
	}
	r.armCanary(1)
	for seq := uint64(0); seq < 100; seq++ {
		if !r.admit(seq) {
			t.Fatalf("frac 1 skipped seq %d", seq)
		}
	}
}

// TestRecalEventLogBounded: the event log keeps the newest maxRecalEvents
// events, oldest first.
func TestRecalEventLogBounded(t *testing.T) {
	r := &Recalibrator{store: recal.NewStore(recal.StoreConfig{})}
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

// TestShadowScoreCountsNonFinite: a canary candidate whose ranking holds a
// non-finite IPC anywhere counts a failed shadow prediction; a finite
// ranking counts only as scored.
func TestShadowScoreCountsNonFinite(t *testing.T) {
	eng, err := New(WithFast(), WithRepetitions(1), WithMLR())
	if err != nil {
		t.Fatal(err)
	}
	bank, err := eng.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r := &Recalibrator{}
	r.candidate.Store(bank)
	for _, tc := range []struct {
		rate   float64
		failed uint64
	}{{1e300, 0}, {1.7e308, 1}} {
		rates := Rates{"IPC": 1.2}
		for _, name := range bank.Meta().EventSets[0] {
			rates[name] = tc.rate
		}
		var sc predictScratch
		if sc.rates, err = rates.toPMU(); err != nil {
			t.Fatal(err)
		}
		r.scored.Store(0)
		r.failed.Store(0)
		r.shadowScore(&sc)
		if r.scored.Load() != 1 || r.failed.Load() != tc.failed {
			t.Errorf("rates at %g: scored %d, failed %d; want 1, %d", tc.rate, r.scored.Load(), r.failed.Load(), tc.failed)
		}
	}
}
