package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"github.com/greenhpc/actor/pkg/actor"
)

// mlrBank trains the fast linear-regression bank (seconds, not minutes)
// and returns the path it was saved to.
func mlrBank(t *testing.T) string {
	t.Helper()
	eng, err := actor.New(actor.WithFast(), actor.WithMLR())
	if err != nil {
		t.Fatal(err)
	}
	bank, err := eng.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bank.json")
	if err := bank.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunExitCodesAndOutput(t *testing.T) {
	bank := mlrBank(t)
	for _, c := range []struct {
		name       string
		args       []string
		stdin      string
		code       int
		stdoutHave []string
		stderrHave []string
	}{
		{
			name:       "valid rates print a ranking and a recommendation",
			args:       []string{"-bank", bank},
			stdin:      `{"IPC":1.1,"L2_LINES_IN":0.004,"BUS_TRANS_MEM":0.005}`,
			stdoutHave: []string{"predicted IPC by configuration (best first):", "(observed)", "recommendation: "},
		},
		{
			name:       "malformed stdin",
			args:       []string{"-bank", bank},
			stdin:      `{"IPC":`,
			code:       1,
			stderrHave: []string{"actor-predict: parsing rates from stdin"},
		},
		{
			name:       "unknown event",
			args:       []string{"-bank", bank},
			stdin:      `{"IPC":1.1,"BOGUS":1}`,
			code:       1,
			stderrHave: []string{`unknown event "BOGUS"`},
		},
		{
			name:       "missing bank",
			args:       []string{"-bank", filepath.Join(t.TempDir(), "absent.json")},
			stdin:      `{"IPC":1.1}`,
			code:       1,
			stderrHave: []string{"actor-predict:"},
		},
		{
			name:       "unknown flag",
			args:       []string{"-fast"},
			code:       2,
			stderrHave: []string{"flag provided but not defined: -fast"},
		},
		{
			name:       "stray argument",
			args:       []string{"-bank", bank, "oops"},
			stdin:      `{"IPC":1.1}`,
			code:       2,
			stderrHave: []string{`unexpected argument "oops"`, "Usage of actor-predict"},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(c.args, strings.NewReader(c.stdin), &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			if c.code != 0 && stdout.Len() != 0 {
				t.Errorf("failed run wrote stdout: %q", stdout.String())
			}
			for _, want := range c.stdoutHave {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout %q lacks %q", stdout.String(), want)
				}
			}
			for _, want := range c.stderrHave {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr %q lacks %q", stderr.String(), want)
				}
			}
		})
	}
}
