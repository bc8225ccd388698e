package loadgen

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func testConfig() Config {
	return Config{
		Seed:        7,
		Duration:    2 * time.Second,
		Rate:        500,
		Amp:         0.6,
		Period:      time.Second,
		TailAlpha:   1.5,
		Vectors:     16,
		PhaseChange: true,
		Events:      []string{"INST_RETIRED", "L2_MISSES"},
	}
}

// TestTraceDeterministic is the harness's core contract: the same Config
// yields the same trace, byte for byte, offset for offset.
func TestTraceDeterministic(t *testing.T) {
	a := Trace(testConfig())
	b := Trace(testConfig())
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("trace diverges at %d: (%v, %s) vs (%v, %s)", i, a[i].At, a[i].Body, b[i].At, b[i].Body)
		}
	}
	cfg := testConfig()
	cfg.Seed = 8
	c := Trace(cfg)
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i].At != c[i].At {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical schedules")
		}
	}
}

func TestTraceShape(t *testing.T) {
	cfg := testConfig()
	trace := Trace(cfg)
	// Mean rate should land near Rate (bursts push it above; the diurnal
	// curve averages out over full periods). Very loose bounds — this is a
	// sanity check, not a statistics test.
	perSec := float64(len(trace)) / cfg.Duration.Seconds()
	if perSec < cfg.Rate/2 || perSec > cfg.Rate*8 {
		t.Errorf("trace rate %.0f req/s implausible for configured %.0f", perSec, cfg.Rate)
	}
	var prev time.Duration
	phases := map[string]bool{}
	for _, r := range trace {
		if r.At < prev {
			t.Fatal("offsets are not non-decreasing")
		}
		prev = r.At
		if r.At >= cfg.Duration {
			t.Fatalf("offset %v beyond duration %v", r.At, cfg.Duration)
		}
		if bytes.Contains(r.Body, []byte(`"steady"`)) {
			phases["steady"] = true
		}
		if bytes.Contains(r.Body, []byte(`"shifted"`)) {
			phases["shifted"] = true
		}
	}
	if !phases["steady"] || !phases["shifted"] {
		t.Errorf("phase change missing from trace: saw %v", phases)
	}
	// Zipf popularity: the most popular body should dominate a uniform
	// share by a wide margin.
	counts := map[string]int{}
	for _, r := range trace {
		counts[string(r.Body)]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	if max < len(trace)/cfg.Vectors {
		t.Errorf("top body count %d does not exceed the uniform share %d", max, len(trace)/cfg.Vectors)
	}
}

// TestTraceRefusesUnschedulableConfigs: a rate that is not finite and
// positive, a non-finite amplitude, a non-positive duration, a peak rate over
// one arrival per nanosecond or more than ten million expected arrivals
// yields no trace. Under most rows every gap is 0 or NaN, so a trace that did
// not stop at the guard would never reach its duration; under the last it
// would build a hundred million arrivals. Config.Check, the one bound
// cmd/actorload also applies to its flags, refuses every row.
func TestTraceRefusesUnschedulableConfigs(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"rate +Inf", func(c *Config) { c.Rate = math.Inf(1) }},
		{"rate NaN", func(c *Config) { c.Rate = math.NaN() }},
		{"rate -Inf", func(c *Config) { c.Rate = math.Inf(-1) }},
		{"rate 0", func(c *Config) { c.Rate = 0 }},
		{"rate negative", func(c *Config) { c.Rate = -5 }},
		{"amp NaN", func(c *Config) { c.Amp = math.NaN() }},
		{"amp +Inf", func(c *Config) { c.Amp = math.Inf(1) }},
		{"amp -Inf", func(c *Config) { c.Amp = math.Inf(-1) }},
		{"duration 0", func(c *Config) { c.Duration = 0 }},
		// Finite but unschedulable: the peak rate overflows to +Inf, every
		// gap rounds to 0 ns, or the schedule holds too many arrivals.
		{"amp 1e308 peaks at +Inf", func(c *Config) { c.Amp = 1e308 }},
		{"amp -1e308 peaks at +Inf", func(c *Config) { c.Amp = -1e308 }},
		{"rate 1e12", func(c *Config) { c.Rate = 1e12 }},
		{"rate 1e12 for 1ns", func(c *Config) { c.Rate, c.Duration = 1e12, time.Nanosecond }},
		{"peak just over 1e9", func(c *Config) { c.Rate, c.Amp, c.Duration = 5e8, 1.01, time.Microsecond }},
		{"rate 1e8 for 1s", func(c *Config) { c.Rate, c.Amp, c.Duration = 1e8, 0, time.Second }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			c.edit(&cfg)
			if trace := Trace(cfg); trace != nil {
				t.Errorf("Trace returned %d requests, want nil", len(trace))
			}
			if err := cfg.Check(); err == nil {
				t.Error("Check accepted a config Trace refuses")
			}
		})
	}
	if err := testConfig().Check(); err != nil {
		t.Errorf("Check refused the schedulable test config: %v", err)
	}
}

// TestTraceSchedulesAtThePeakRateBound: a peak of exactly one arrival per
// nanosecond still advances the offset and ends inside the duration.
func TestTraceSchedulesAtThePeakRateBound(t *testing.T) {
	cfg := testConfig()
	cfg.Rate, cfg.Amp, cfg.TailAlpha, cfg.Duration = 5e8, 1, 0, 20*time.Microsecond
	trace := Trace(cfg)
	if len(trace) == 0 {
		t.Fatal("Trace refused a peak rate of exactly 1e9 per second")
	}
	if last := trace[len(trace)-1].At; last >= cfg.Duration {
		t.Errorf("last offset %v is not inside the %v trace", last, cfg.Duration)
	}
}

// TestTraceCapsEveryBurst: a Pareto shape so small that its draws overflow
// to +Inf still yields bursts of exactly the 64-request cap, not bursts
// lost to an out-of-range conversion; an infinite shape means bursts of one.
func TestTraceCapsEveryBurst(t *testing.T) {
	for _, c := range []struct {
		name  string
		alpha float64
		burst int
	}{
		{"alpha 1e-300 draws +Inf", 1e-300, 64},
		{"alpha +Inf draws 1", math.Inf(1), 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Rate = 20
			cfg.TailAlpha = c.alpha
			trace := Trace(cfg)
			if len(trace) == 0 {
				t.Fatal("empty trace")
			}
			bursts := map[time.Duration]int{}
			for _, r := range trace {
				bursts[r.At]++
			}
			for at, n := range bursts {
				if n != c.burst {
					t.Errorf("burst at %v has %d requests, want %d", at, n, c.burst)
				}
			}
		})
	}
}

// TestRunAgainstServer replays a short trace against a live httptest
// server and checks the accounting: everything dispatched, errors counted,
// latencies recorded.
func TestRunAgainstServer(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte("{}"))
	}))
	defer ts.Close()

	cfg := testConfig()
	cfg.Duration = 300 * time.Millisecond
	cfg.Rate = 300
	trace := Trace(cfg)
	res, err := Run(context.Background(), ts.Client(), ts.URL, trace, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != len(trace) {
		t.Errorf("sent %d of %d", res.Sent, len(trace))
	}
	if res.Errors != 0 {
		t.Errorf("%d errors against an all-200 server", res.Errors)
	}
	if int(hits.Load()) != len(trace) {
		t.Errorf("server saw %d requests, trace has %d", hits.Load(), len(trace))
	}
	if res.Lat.Count() != uint64(len(trace)) {
		t.Errorf("histogram holds %d samples, want %d", res.Lat.Count(), len(trace))
	}
	if res.ReqPerSec() <= 0 {
		t.Error("zero throughput")
	}
	if p50, p99 := res.Lat.Quantile(0.50), res.Lat.Quantile(0.99); p50 > p99 {
		t.Errorf("p50 %d > p99 %d", p50, p99)
	}
}

func TestRunCountsErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer ts.Close()
	cfg := testConfig()
	cfg.Duration = 100 * time.Millisecond
	cfg.Rate = 200
	trace := Trace(cfg)
	res, err := Run(context.Background(), ts.Client(), ts.URL, trace, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != res.Sent {
		t.Errorf("errors %d != sent %d against an all-400 server", res.Errors, res.Sent)
	}
}

func TestCheckDetectsDivergence(t *testing.T) {
	n := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n++
		if n%2 == 0 {
			w.Write([]byte("B"))
		} else {
			w.Write([]byte("A"))
		}
	}))
	defer ts.Close()
	cfg := testConfig()
	cfg.Duration = 50 * time.Millisecond
	cfg.Rate = 100
	trace := Trace(cfg)
	if err := Check(context.Background(), ts.Client(), ts.URL, trace); err == nil {
		t.Fatal("Check passed against a server that alternates responses")
	}
	stable := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer stable.Close()
	if err := Check(context.Background(), stable.Client(), stable.URL, trace); err != nil {
		t.Fatalf("Check failed against a stable server: %v", err)
	}
}

// --- histogram ---

func TestHistExactLowValues(t *testing.T) {
	var h Hist
	for v := int64(0); v < 64; v++ {
		h.Add(v)
	}
	if h.Count() != 64 || h.Min() != 0 || h.Max() != 63 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count(), h.Min(), h.Max())
	}
	// Values below 2*subBuckets are exact: the p-quantile of 0..63 is
	// ceil(64p)-1.
	for _, p := range []float64{0.01, 0.25, 0.5, 0.99, 1.0} {
		want := int64(math.Ceil(64*p)) - 1
		if got := h.Quantile(p); got != want {
			t.Errorf("Quantile(%g) = %d, want %d", p, got, want)
		}
	}
}

func TestHistRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Hist
	var vals []int64
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~6 decades, like a latency distribution with a tail.
		v := int64(math.Exp(rng.Float64() * 14))
		vals = append(vals, v)
		h.Add(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(math.Ceil(p*float64(len(vals)))) - 1
		exact := vals[rank]
		got := h.Quantile(p)
		if got < exact {
			t.Errorf("Quantile(%g) = %d below exact %d (upper bound violated)", p, got, exact)
		}
		if float64(got) > float64(exact)*(1+2.0/subBuckets)+1 {
			t.Errorf("Quantile(%g) = %d, exact %d: error beyond bucket resolution", p, got, exact)
		}
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, all Hist
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(1 << 20))
		all.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatalf("merge lost samples: %d/%d", a.Count(), all.Count())
	}
	for _, p := range []float64{0.5, 0.99, 0.999} {
		if a.Quantile(p) != all.Quantile(p) {
			t.Errorf("Quantile(%g): merged %d != direct %d", p, a.Quantile(p), all.Quantile(p))
		}
	}
}

func TestHistNegativeClamps(t *testing.T) {
	var h Hist
	h.Add(-5)
	if h.Count() != 1 || h.Min() != 0 || h.Quantile(1) != 0 {
		t.Errorf("negative sample mishandled: count=%d min=%d q=%d", h.Count(), h.Min(), h.Quantile(1))
	}
}
