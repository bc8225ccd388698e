package main

import (
	"strings"
	"testing"
)

// TestRunRefusesNonPositiveSettings: dist.New reads a non-positive timeout,
// retry count, hedge floor or shard size as its default, so each is refused,
// naming the flag, before the bank is loaded (no bank file exists here).
func TestRunRefusesNonPositiveSettings(t *testing.T) {
	for _, c := range []struct {
		name       string
		args       []string
		code       int
		stderrHave string
	}{
		{"zero timeout", []string{"-timeout", "0s"}, 1, "-timeout 0s is not positive"},
		{"negative timeout", []string{"-timeout", "-1s"}, 1, "-timeout -1s is not positive"},
		{"zero retries", []string{"-retries", "0"}, 1, "-retries 0 is not positive"},
		{"negative retries", []string{"-retries", "-2"}, 1, "-retries -2 is not positive"},
		{"zero hedge", []string{"-hedge", "0s"}, 1, "-hedge 0s is not positive"},
		{"negative hedge", []string{"-hedge", "-5ms"}, 1, "-hedge -5ms is not positive"},
		{"zero shard units", []string{"-shard-units", "0"}, 1, "-shard-units 0 is not positive"},
		{"negative shard units", []string{"-shard-units", "-5"}, 1, "-shard-units -5 is not positive"},
		{"unknown flag", []string{"-shards", "2"}, 2, "flag provided but not defined: -shards"},
		{"stray argument", []string{"-local", "oops", "-retries", "0"}, 2, `unexpected argument "oops"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			args := append([]string{"-bank", t.TempDir() + "/no-such-bank.json"}, c.args...)
			if code := run(args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing", stdout.String())
			}
			if !strings.Contains(stderr.String(), c.stderrHave) {
				t.Errorf("stderr %q lacks %q", stderr.String(), c.stderrHave)
			}
		})
	}
}
