package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// outputSHA256 is the sha256 of run's output. A change that moves it changes
// what the example prints: re-pin it with the reason.
const outputSHA256 = "e5ca0a89f1c9f0fbca961719a7d794292ac581385a0990c8eab7ebf41cd8aa38"

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
