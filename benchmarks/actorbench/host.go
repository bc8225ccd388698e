package main

import (
	"bufio"
	"net"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/greenhpc/actor/internal/simd"
)

// fingerprint identifies where a result was taken. compare refuses to set
// two results side by side when CPU model or core count differ: BENCH_5 and
// BENCH_6 were gated against each other across a 2.60 and a 2.10 GHz host
// without anyone noticing.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	SIMD       string `json:"simd"`
	Commit     string `json:"commit"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SIMD:       simd.Summary(),
		Commit:     "unknown",
	}
	if v := procField("/proc/cpuinfo", "model name"); v != "" {
		fp.CPUModel = v
	}
	// Outside a git checkout (the driver's copy is not one) the commit
	// stays "unknown"; it is informational and never compared.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "" when the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// statusMB reads a "kB" field of /proc/self/status, in MB; 0 when missing.
func statusMB(key string) float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", key), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// rssSampler reads the resident set once a period while a window runs. The
// end-to-end memory metric is the median of its samples: the high-water mark
// (VmHWM) of a Go process at these heap sizes is set by where a GC cycle
// happened to fall and swung by 16 % between identical runs, the typical
// resident set does not.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
}

func startRSSSampler(period time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.mb = append(s.mb, statusMB("VmRSS"))
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median sample, or the resident
// set right now when the window was shorter than one period.
func (s *rssSampler) median() float64 {
	close(s.stop)
	<-s.done
	if len(s.mb) == 0 {
		return statusMB("VmRSS")
	}
	return median(s.mb)
}

// sleepOvershootUS measures how late time.Sleep(20µs) returns in an idle
// process that has a listener open, as a median over n sleeps. Once the
// netpoller is up an idle Go runtime parks in epoll_wait, whose timeout is in
// whole milliseconds, so a sub-millisecond timer fires about a millisecond
// late. An open-loop generator that paces itself with timers therefore
// measures the timer tick, not the server: that is the gap between the
// 1.4 µs handler benchmark and the ~1 ms p50 in BENCH_<n>.json.
func sleepOvershootUS(n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	const want = 20 * time.Microsecond
	over := make([]float64, n)
	for i := range over {
		t0 := time.Now()
		time.Sleep(want)
		over[i] = float64(time.Since(t0)-want) / 1e3
	}
	slices.Sort(over)
	return quantile(over, 0.5), nil
}
