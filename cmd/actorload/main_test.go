package main

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	// A closed listener: a run that gets past the flags fails dialling it.
	srv := httptest.NewServer(nil)
	closed := srv.URL
	srv.Close()
	for _, c := range []struct {
		name       string
		args       []string
		code       int
		stderrHave []string
	}{
		// Under each of these every trace gap is 0 or NaN: the run would
		// never finish synthesizing its trace.
		{"infinite rate", []string{"-addr", closed, "-rate", "Inf"}, 2, []string{"rate +Inf is not a finite positive rate"}},
		{"NaN rate", []string{"-addr", closed, "-rate", "NaN"}, 2, []string{"rate NaN is not a finite positive rate"}},
		{"zero rate", []string{"-addr", closed, "-rate", "0"}, 2, []string{"rate 0 is not a finite positive rate"}},
		{"NaN amplitude", []string{"-addr", closed, "-amp", "NaN"}, 2, []string{"amp NaN is not finite"}},
		{"infinite amplitude", []string{"-addr", closed, "-amp", "-Inf"}, 2, []string{"amp -Inf is not finite"}},
		// Finite, but the peak rate overflows to +Inf, every gap rounds to
		// 0 ns, or the schedule would hold too many arrivals.
		{"huge amplitude", []string{"-addr", closed, "-amp", "1e308"}, 2, []string{"peak at +Inf req/s, over the limit of 1e9"}},
		{"huge rate", []string{"-addr", closed, "-rate", "1e12"}, 2, []string{"peak at 1.5e+12 req/s, over the limit of 1e9"}},
		{"huge rate for 1ns", []string{"-addr", closed, "-rate", "1e12", "-amp", "0", "-duration", "1ns"}, 2, []string{"peak at 1e+12 req/s"}},
		{"too many arrivals", []string{"-addr", closed, "-rate", "1e8", "-duration", "1s"}, 2, []string{"rate 1e+08 over duration 1s is 1e+08 arrivals, over the limit of 1e7"}},
		{"unknown flag", []string{"-qps", "10"}, 2, []string{"flag provided but not defined: -qps"}},
		{"stray argument", []string{"-addr", closed, "oops", "-rate", "NaN"}, 2, []string{`unexpected argument "oops"`, "Usage of actorload"}},
		{"valid flags reach the target", []string{"-addr", closed, "-duration", "100ms", "-rate", "10"}, 1, []string{"actorload: fetching " + closed + "/v1/bank"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing", stdout.String())
			}
			for _, want := range c.stderrHave {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr %q lacks %q", stderr.String(), want)
				}
			}
		})
	}
}
