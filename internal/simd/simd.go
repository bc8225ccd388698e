// Package simd centralises runtime CPU-feature detection and the policy
// for enabling the repository's vector kernels (internal/ann GEMM,
// internal/machine lane solve).
//
// Two independent switches gate a vector kernel, both visible here:
//
//   - the build: assembly exists only for GOARCH=amd64 and is excluded by
//     the `actor_noasm` build tag, which forces the pure-Go reference on
//     any platform;
//   - the machine: AVX2 must be reported by CPUID and the OS must save
//     YMM state (OSXSAVE + XCR0.SSE/AVX), checked once at startup.
//
// Every vector kernel in this repository is written lane-wise — it
// vectorizes across independent outputs and never reassociates a
// reduction — so switching implementations never changes a single output
// bit. The scalar reference is always compiled and is the semantics;
// property tests in the kernel packages enforce the equivalence.
package simd

import (
	"fmt"
	"strings"
	"sync"
)

// Features describes the vector-relevant CPU capabilities of the running
// machine. On non-amd64 builds (or with the actor_noasm tag) it is zero.
type Features struct {
	AVX     bool // CPUID.1:ECX.AVX
	AVX2    bool // CPUID.7.0:EBX.AVX2
	FMA     bool // CPUID.1:ECX.FMA (detected, deliberately unused: FMA contracts rounding)
	AVX512F bool // CPUID.7.0:EBX.AVX512F
	OSYMM   bool // OSXSAVE set and XCR0 saves XMM+YMM state
}

var detectOnce = sync.OnceValue(detect)

// Detect returns the CPU features, probing once per process.
func Detect() Features { return detectOnce() }

var enabledOnce = sync.OnceValue(func() bool {
	f := Detect()
	return asmBuilt && f.AVX2 && f.OSYMM
})

// Enabled reports whether the AVX2 kernels should be bound: assembly is
// built and the CPU and OS support it. The decision is made once at first
// use and never changes during the process; the scalar reference is
// reached by building with -tags actor_noasm.
func Enabled() bool { return enabledOnce() }

// FeatureString renders the detected features compactly ("avx,avx2,fma"),
// or "none" when nothing relevant was detected.
func (f Features) String() string {
	var parts []string
	if f.AVX {
		parts = append(parts, "avx")
	}
	if f.AVX2 {
		parts = append(parts, "avx2")
	}
	if f.FMA {
		parts = append(parts, "fma")
	}
	if f.AVX512F {
		parts = append(parts, "avx512f")
	}
	if f.OSYMM {
		parts = append(parts, "osymm")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Summary is a one-line description of the dispatch decision, suitable
// for benchmark metadata: e.g. "avx2 (goamd64=v1, features=avx,avx2,fma)".
func Summary() string {
	mode := "scalar"
	if Enabled() {
		mode = "avx2"
	}
	level := goamd64Level
	if level == "" {
		level = "n/a"
	}
	return fmt.Sprintf("%s (goamd64=%s, features=%s)", mode, level, Detect())
}
