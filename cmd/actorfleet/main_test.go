package main

import (
	"slices"
	"strings"
	"testing"
)

func TestRunExitCodesAndOutput(t *testing.T) {
	smoke := []string{"-fleet", "12*2x2,4*1x4+2x2:little", "-jobs", "100", "-seed", "42", "-rate", "2"}
	for _, c := range []struct {
		name       string
		args       []string
		code       int
		stdout     string // exact
		stderrHave []string
	}{
		{
			name:   "digest is the pinned smoke line",
			args:   slices.Concat(smoke, []string{"-digest"}),
			stdout: "digest=f7dbabbf7c22d7bb violations=0 scorer=incremental\n",
		},
		{
			name:   "verify passes and keeps the digest",
			args:   slices.Concat(smoke, []string{"-digest", "-verify"}),
			stdout: "digest=f7dbabbf7c22d7bb violations=0 scorer=incremental\n",
		},
		{
			name:       "naive scorer is refused, naming the accepted ones",
			args:       slices.Concat(smoke, []string{"-digest", "-scorer", "naive"}),
			code:       1,
			stderrHave: []string{`unknown scorer "naive"`, "incremental, binpack"},
		},
		{
			// fleet.Options reads a zero bound as its 0.25 default.
			name:       "zero QoS bound is refused, naming the bound",
			args:       slices.Concat(smoke, []string{"-digest", "-qos", "0"}),
			code:       1,
			stderrHave: []string{"QoS bound 0 is not positive"},
		},
		{
			name:       "bad fleet spec",
			args:       []string{"-fleet", "12*nope", "-digest"},
			code:       1,
			stderrHave: []string{"actorfleet:"},
		},
		{
			name:       "unknown flag",
			args:       []string{"-machines", "16*2x2"},
			code:       2,
			stderrHave: []string{"flag provided but not defined: -machines"},
		},
		{
			// flag parsing stops at the first positional argument, so
			// accepting one would silently drop -qos NaN behind it.
			name:       "stray argument",
			args:       slices.Concat(smoke, []string{"-digest", "oops", "-qos", "NaN"}),
			code:       2,
			stderrHave: []string{`unexpected argument "oops"`, "Usage of actorfleet"},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			if got := stdout.String(); got != c.stdout {
				t.Errorf("stdout = %q, want %q", got, c.stdout)
			}
			for _, want := range c.stderrHave {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr %q lacks %q", stderr.String(), want)
				}
			}
		})
	}
}

func TestRunStudyReportsBothScorers(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-fleet", "16*2x2", "-jobs", "40", "-verify"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"incremental", "binpack", "ED2 vs binpack", "schedule digest"} {
		if !strings.Contains(out, want) {
			t.Errorf("study output lacks %q:\n%s", want, out)
		}
	}
}
