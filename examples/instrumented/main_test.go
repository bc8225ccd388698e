package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// outputSHA256 is the sha256 of run's output. A change that moves it changes
// what the example prints: re-pin it with the reason.
const outputSHA256 = "6da783bfa1ae1e48c0f71b20aaf4490a57ad8e5f017d445c85f25f9713160b52"

// TestRunOutputPinned: run succeeds, prints the same bytes twice and prints
// the pinned bytes.
func TestRunOutputPinned(t *testing.T) {
	var first, second bytes.Buffer
	if err := run(&first); err != nil {
		t.Fatal(err)
	}
	if err := run(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two runs print different bytes:\n%s\n--- and ---\n%s", first.Bytes(), second.Bytes())
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(first.Bytes())); got != outputSHA256 {
		t.Errorf("output sha256 %s, pinned %s; output:\n%s", got, outputSHA256, first.Bytes())
	}
}
