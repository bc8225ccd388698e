package simd

import (
	"strings"
	"testing"
)

func TestEnabledRequiresHardware(t *testing.T) {
	// Enabled is exactly "assembly built ∧ AVX2 ∧ OS saves YMM": there is
	// no runtime opt-out, so an AVX2 host binds the vector kernels unless
	// the binary was built with -tags actor_noasm.
	f := Detect()
	want := asmBuilt && f.AVX2 && f.OSYMM
	if got := Enabled(); got != want {
		t.Fatalf("Enabled() = %v, want %v (asm built %v, features %v)", got, want, asmBuilt, f)
	}
}

func TestDetectConsistency(t *testing.T) {
	f := Detect()
	// AVX2 is an extension of AVX: real hardware never reports AVX2
	// without AVX. (Zero-feature fallback builds pass trivially.)
	if f.AVX2 && !f.AVX {
		t.Fatalf("implausible feature set: %v", f)
	}
	if Detect() != f {
		t.Fatal("Detect not stable across calls")
	}
}

func TestSummaryShape(t *testing.T) {
	s := Summary()
	if !strings.Contains(s, "goamd64=") || !strings.Contains(s, "features=") {
		t.Fatalf("Summary missing fields: %q", s)
	}
	mode := "scalar "
	if Enabled() {
		mode = "avx2 "
	}
	if !strings.HasPrefix(s, mode) {
		t.Fatalf("Summary mode disagrees with Enabled() = %v: %q", Enabled(), s)
	}
}
