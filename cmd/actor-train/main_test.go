package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/greenhpc/actor/pkg/actor"
)

func TestRunExitCodesAndOutput(t *testing.T) {
	dir := t.TempDir()
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		args       []string
		code       int
		bank       string // a path LoadBank must accept afterwards
		stdoutHave []string
		stderrHave []string
	}{
		{
			name:       "unknown flag",
			args:       []string{"-bogus"},
			code:       2,
			stderrHave: []string{"flag provided but not defined: -bogus"},
		},
		{
			name:       "stray argument",
			args:       []string{"-fast", "-mlr", "-bank", filepath.Join(dir, "stray.json"), "oops"},
			code:       2,
			stderrHave: []string{`unexpected argument "oops"`, "Usage of actor-train"},
		},
		{
			name:       "mlr bank",
			args:       []string{"-fast", "-mlr", "-bank", filepath.Join(dir, "mlr.json")},
			bank:       filepath.Join(dir, "mlr.json"),
			stdoutHave: []string{"wrote mlr bank"},
		},
		{
			name:       "ann bank",
			args:       []string{"-fast", "-bank", filepath.Join(dir, "models", "ann.json")},
			bank:       filepath.Join(dir, "models", "ann.json"),
			stdoutHave: []string{"wrote ann bank"},
		},
		{
			name:       "unwritable bank path",
			args:       []string{"-fast", "-mlr", "-bank", filepath.Join(notDir, "bank.json")},
			code:       1,
			stderrHave: []string{"actor-train: "},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			if c.code != 0 && stdout.Len() != 0 {
				t.Errorf("failed run wrote to stdout:\n%s", stdout.String())
			}
			for _, want := range c.stdoutHave {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
			}
			for _, want := range c.stderrHave {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
				}
			}
			if c.bank != "" {
				// LoadBank decodes through DecodeBank, which also holds
				// every ANN member to the one [d, 16, 1] shape.
				if _, err := actor.LoadBank(c.bank); err != nil {
					t.Errorf("written bank does not load: %v", err)
				}
			}
		})
	}
}
