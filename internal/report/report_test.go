package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("alpha", "1.0")
	tbl.AddRow("bee", "2.25")
	out := tbl.String()
	if !strings.Contains(out, "demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.25") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + rule + 2 rows
	if len(lines) != 5 {
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: every data line has the header's separator position.
	hdr := lines[1]
	if !strings.HasPrefix(hdr, "  name") {
		t.Errorf("header misaligned: %q", hdr)
	}
}

func TestTableShortRowsPadded(t *testing.T) {
	tbl := NewTable("", "a", "b", "c")
	tbl.AddRow("only")
	out := tbl.String()
	if !strings.Contains(out, "only") {
		t.Error("row lost")
	}
}

func TestSectionAndKV(t *testing.T) {
	var b strings.Builder
	Section(&b, "Results")
	KV(&b, "median error", "%.1f%%", 9.1)
	out := b.String()
	if !strings.Contains(out, "=== Results ===") {
		t.Error("section header missing")
	}
	if !strings.Contains(out, "median error:") || !strings.Contains(out, "9.1%") {
		t.Errorf("KV line malformed:\n%s", out)
	}
}
