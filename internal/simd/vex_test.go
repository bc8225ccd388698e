package simd

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// vecReg matches an X/Y/Z vector register operand.
var vecReg = regexp.MustCompile(`^[XYZ](?:[0-9]|[12][0-9]|3[01])$`)

// nonVEX returns one finding per instruction of an amd64 Go assembly source
// that touches an X/Y/Z register with a legacy (non-VEX) SSE encoding —
// MOVQ AX, X6, MOVSD, ADDSD, PXOR … without the V prefix. Mixing legacy
// SSE with 256-bit VEX code costs an AVX/SSE transition on every mix: one
// such MOVQ once made a new kernel ×1.8 slower with identical results, and
// no bit-identity test can notice.
func nonVEX(name, src string) []string {
	var out []string
	for n, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), `\`))
		if i := strings.Index(line, ":"); i >= 0 && !strings.ContainsAny(line[:i], " \t(") {
			line = strings.TrimSpace(line[i+1:]) // a label
		}
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		op := fields[0]
		switch op {
		case "TEXT", "DATA", "GLOBL", "PCDATA", "FUNCDATA":
			continue
		}
		if strings.HasPrefix(op, "V") {
			continue
		}
		for _, arg := range strings.Split(strings.Join(fields[1:], " "), ",") {
			if arg = strings.TrimSpace(arg); vecReg.MatchString(arg) {
				out = append(out, fmt.Sprintf("%s:%d: non-VEX %s touches %s", name, n+1, op, arg))
				break
			}
		}
	}
	return out
}

// TestAssemblyIsVEXOnly scans every internal/*/*_amd64.s for legacy SSE
// instructions on vector registers.
func TestAssemblyIsVEXOnly(t *testing.T) {
	files, err := filepath.Glob("../*/*_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no amd64 assembly found under internal/")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, finding := range nonVEX(f, string(src)) {
			t.Error(finding)
		}
	}
}

// TestNonVEXFindsLegacySSE pins what the lint reports and what it lets
// through.
func TestNonVEXFindsLegacySSE(t *testing.T) {
	src := `#include "textflag.h"
TEXT ·f(SB), NOSPLIT, $0-8
	MOVQ x+0(FP), AX       // general-purpose: fine
	MOVQ AX, X6            // legacy SSE
loop:	ADDSD X1, X0
	PXOR X2, X2
	VMOVQ AX, X7           // VEX: fine
	VADDPD Y1, Y0, Y0 \
	MOVUPD (SI), Y3        // legacy on a Y register (does not assemble, still reported)
	MOVSD X15, 8(DI)
	RET
`
	got := nonVEX("f.s", src)
	want := []string{
		"f.s:4: non-VEX MOVQ touches X6",
		"f.s:5: non-VEX ADDSD touches X1",
		"f.s:6: non-VEX PXOR touches X2",
		"f.s:9: non-VEX MOVUPD touches Y3",
		"f.s:10: non-VEX MOVSD touches X15",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
