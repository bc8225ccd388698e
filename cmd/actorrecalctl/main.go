// Command actorrecalctl is the admin CLI of actord's online recalibration
// loop (actord -recal):
//
//	actorrecalctl [-addr http://localhost:7690] status     # GET  /v1/recal/status
//	actorrecalctl [-addr ...] trigger                      # POST /v1/recal/trigger
//	actorrecalctl [-addr ...] promote                      # POST /v1/recal/promote
//	actorrecalctl [-addr ...] rollback                     # POST /v1/recal/rollback
//
// The response body is printed verbatim; a non-2xx status exits 1, so the
// command composes into scripts and CI gates (see scripts/recal_e2e.sh).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it parses args, sends the one request,
// copies the response body to stdout and errors to stderr, and returns the
// exit code — 0 on a 2xx response, 1 on a failed request or a non-2xx
// status, 2 on a bad flag or a missing, unknown or extra command.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("actorrecalctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://localhost:7690", "actord base URL")
	timeout := fs.Duration("timeout", 2*time.Minute, "request timeout (trigger can retrain synchronously)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: actorrecalctl [-addr URL] [-timeout D] status|trigger|promote|rollback\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	var method, path string
	switch cmd := fs.Arg(0); cmd {
	case "status":
		method, path = http.MethodGet, "/v1/recal/status"
	case "trigger", "promote", "rollback":
		method, path = http.MethodPost, "/v1/recal/"+cmd
	default:
		fmt.Fprintf(stderr, "actorrecalctl: unknown command %q\n", cmd)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "actorrecalctl:", err)
		return 1
	}

	url := strings.TrimRight(*addr, "/") + path
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return fail(err)
	}
	resp, err := (&http.Client{Timeout: *timeout}).Do(req)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fail(err)
	}
	stdout.Write(body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		fmt.Fprintf(stderr, "actorrecalctl: %s %s: %s\n", method, path, resp.Status)
		return 1
	}
	return 0
}
