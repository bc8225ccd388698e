package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fakeActord answers the recalibration routes the way actord does: status
// on GET, the two actions on POST, and a conflict for rollback when no
// previous generation is retained.
func fakeActord(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/recal/status", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{\"generation\":1,\n \"state\":\"idle\"}\n"))
	})
	mux.HandleFunc("POST /v1/recal/trigger", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"triggered":true}`))
	})
	mux.HandleFunc("POST /v1/recal/rollback", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
		w.Write([]byte(`{"error":"no previous bank generation to roll back to"}`))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestRunExitCodesAndOutput(t *testing.T) {
	addr := fakeActord(t).URL
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	for _, c := range []struct {
		name       string
		args       []string
		code       int
		stdout     string // exact
		stderrHave []string
	}{
		{
			name:   "status prints the body verbatim",
			args:   []string{"-addr", addr + "/", "status"},
			stdout: "{\"generation\":1,\n \"state\":\"idle\"}\n",
		},
		{
			name:   "trigger is a POST",
			args:   []string{"-addr", addr, "trigger"},
			stdout: `{"triggered":true}`,
		},
		{
			name:       "non-2xx rollback prints the body and names the status",
			args:       []string{"-addr", addr, "rollback"},
			code:       1,
			stdout:     `{"error":"no previous bank generation to roll back to"}`,
			stderrHave: []string{"actorrecalctl: POST /v1/recal/rollback: 409 Conflict"},
		},
		{
			name:       "unreachable actord",
			args:       []string{"-addr", closed.URL, "status"},
			code:       1,
			stderrHave: []string{"actorrecalctl: "},
		},
		{
			name:       "unknown command",
			args:       []string{"-addr", addr, "reboot"},
			code:       2,
			stderrHave: []string{`actorrecalctl: unknown command "reboot"`, "usage: actorrecalctl"},
		},
		{
			name:       "no command",
			args:       []string{"-addr", addr},
			code:       2,
			stderrHave: []string{"usage: actorrecalctl"},
		},
		{
			name:       "extra argument",
			args:       []string{"-addr", addr, "status", "rollback"},
			code:       2,
			stderrHave: []string{"usage: actorrecalctl"},
		},
		{
			name:       "unknown flag",
			args:       []string{"-bogus", "status"},
			code:       2,
			stderrHave: []string{"flag provided but not defined: -bogus"},
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
