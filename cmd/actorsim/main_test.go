package main

import (
	"strings"
	"testing"
)

func TestRunExitCodesAndOutput(t *testing.T) {
	for _, c := range []struct {
		name       string
		args       []string
		code       int
		stdoutHave []string
		stderrHave []string
	}{
		{
			name:       "one study prints its figure",
			args:       []string{"-fast", "scalability"},
			stdoutHave: []string{"Figure 1: execution times by hardware configuration"},
		},
		{
			name: "unknown study names the accepted ones",
			args: []string{"-fast", "nope"},
			code: 1,
			stderrHave: []string{`actorsim: actor: unknown study "nope"`,
				"scalability, phases, power, accuracy, ranks, throttle, extensions, hetero, generalize, robustness, all"},
		},
		{
			// flag parsing stops at the study, so a flag behind it would
			// otherwise be dropped: this would run the full-fidelity study.
			name:       "flag after the study",
			args:       []string{"hetero", "-fast"},
			code:       2,
			stderrHave: []string{`unexpected argument "-fast"`, "Usage of actorsim"},
		},
		{
			name:       "two studies",
			args:       []string{"-fast", "scalability", "power"},
			code:       2,
			stderrHave: []string{`unexpected argument "power"`},
		},
		{
			name:       "unknown flag",
			args:       []string{"-bogus"},
			code:       2,
			stderrHave: []string{"flag provided but not defined: -bogus"},
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
		})
	}
}
