package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/greenhpc/actor/internal/dist/faultinject"
	"github.com/greenhpc/actor/pkg/actor"
)

// The distributed tests share one trained bank (training dominates the
// cost); every worker and coordinator rebuilds its own engine from the
// encoded bank, exactly as distinct processes would.
var (
	fixOnce  sync.Once
	fixBytes []byte
	fixErr   error
)

func bankBytes(t *testing.T) []byte {
	t.Helper()
	fixOnce.Do(func() {
		eng, err := actor.New(actor.WithFast(), actor.WithRepetitions(1), actor.WithMLR())
		if err != nil {
			fixErr = err
			return
		}
		bank, err := eng.Train(context.Background())
		if err != nil {
			fixErr = err
			return
		}
		fixBytes, fixErr = bank.Encode()
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixBytes
}

func newEngine(t *testing.T) *actor.Engine {
	t.Helper()
	bank, err := actor.DecodeBank(bankBytes(t))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := actor.ForBank(bank)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// newWorkers starts n independent actord-equivalent workers and returns
// their base URLs.
func newWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv, err := actor.NewServer(newEngine(t))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// localJSON is the single-process reference: the canonical workload
// evaluated in-process and JSON-encoded — the bytes every distributed run
// must reproduce exactly.
func localJSON(t *testing.T, eng *actor.Engine) []byte {
	t.Helper()
	var out []actor.PhaseSweep
	for _, u := range eng.Workload() {
		sweeps, err := eng.Sweep(context.Background(), u)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sweeps...)
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func runJSON(t *testing.T, c *Coordinator) []byte {
	t.Helper()
	sweeps, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(sweeps)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPartition(t *testing.T) {
	units := make([]actor.SweepRequest, 7)
	for i := range units {
		units[i] = actor.SweepRequest{Bench: fmt.Sprintf("B%d", i)}
	}
	shards := Partition(units, 3)
	if len(shards) != 3 || len(shards[0]) != 3 || len(shards[2]) != 1 {
		t.Fatalf("partition shapes: %d shards, sizes %d/%d/%d", len(shards), len(shards[0]), len(shards[1]), len(shards[2]))
	}
	// Canonical order is preserved across the shard boundary.
	i := 0
	for _, sh := range shards {
		for _, u := range sh {
			if u.Bench != units[i].Bench {
				t.Fatalf("unit %d reordered: %q", i, u.Bench)
			}
			i++
		}
	}
}

func TestShardFingerprint(t *testing.T) {
	units := []actor.SweepRequest{{Bench: "SP", Phases: []string{"x_solve"}}}
	fp := actor.ShardFingerprint("", 42, units)
	if fp != actor.ShardFingerprint("", 42, units) {
		t.Fatal("fingerprint is not stable")
	}
	if fp == actor.ShardFingerprint("", 43, units) {
		t.Error("seed does not alter the fingerprint")
	}
	if fp == actor.ShardFingerprint("16x2", 42, units) {
		t.Error("topology does not alter the fingerprint")
	}
	if fp == actor.ShardFingerprint("", 42, []actor.SweepRequest{{Bench: "SP", Phases: []string{"rhs"}}}) {
		t.Error("units do not alter the fingerprint")
	}
}

func TestDistributedMatchesLocal(t *testing.T) {
	eng := newEngine(t)
	want := localJSON(t, eng)
	c := New(eng, Options{Workers: newWorkers(t, 3), Logf: t.Logf})
	got := runJSON(t, c)
	if string(got) != string(want) {
		t.Fatal("distributed run is not byte-identical to the in-process run")
	}
	st := c.Stats()
	if st.Local != 0 || st.Remote != st.Shards || st.Shards == 0 {
		t.Errorf("healthy fleet should answer every shard remotely: %+v", st)
	}
	for _, ws := range c.WorkerStates() {
		if ws.State != Ready {
			t.Errorf("worker %s ended %s, want ready", ws.URL, ws.State)
		}
	}
}

// TestFaultSchedules is the robustness acceptance property: under every
// injected failure schedule — drops, delays (forcing hedges), 5xxs,
// truncated bodies, a worker killed mid-run, and all of them at once —
// the merged result stays bit-identical to the in-process run.
func TestFaultSchedules(t *testing.T) {
	eng := newEngine(t)
	want := localJSON(t, eng)
	schedules := []struct {
		name  string
		s     faultinject.Schedule
		opts  Options
		check func(t *testing.T, tr *faultinject.Transport, c *Coordinator)
	}{
		{
			name: "drops",
			s:    faultinject.Schedule{Drop: 0.3, Seed: 7},
			check: func(t *testing.T, tr *faultinject.Transport, c *Coordinator) {
				if d, _, _, _, _ := tr.Counts(); d == 0 {
					t.Error("schedule injected no drops")
				}
				if c.Stats().Retries == 0 {
					t.Error("drops caused no retries")
				}
			},
		},
		{
			name: "stragglers-hedged",
			s:    faultinject.Schedule{Delay: 0.5, DelayFor: 60 * time.Millisecond, Seed: 11},
			opts: Options{HedgeFloor: 5 * time.Millisecond},
			check: func(t *testing.T, tr *faultinject.Transport, c *Coordinator) {
				if c.Stats().Hedges == 0 {
					t.Error("stragglers triggered no hedges")
				}
			},
		},
		{
			name: "server-errors",
			s:    faultinject.Schedule{Err500: 0.4, Seed: 13},
			check: func(t *testing.T, tr *faultinject.Transport, c *Coordinator) {
				if _, _, e, _, _ := tr.Counts(); e == 0 {
					t.Error("schedule injected no 500s")
				}
			},
		},
		{
			name: "truncated-bodies",
			s:    faultinject.Schedule{Truncate: 0.4, Seed: 17},
			check: func(t *testing.T, tr *faultinject.Transport, c *Coordinator) {
				if _, _, _, tc, _ := tr.Counts(); tc == 0 {
					t.Error("schedule truncated no bodies")
				}
			},
		},
		{
			name: "everything-at-once",
			s: faultinject.Schedule{Drop: 0.15, Delay: 0.2, DelayFor: 30 * time.Millisecond,
				Err500: 0.15, Truncate: 0.15, Seed: 23},
			opts: Options{HedgeFloor: 10 * time.Millisecond, Retries: 5},
		},
	}
	for _, tc := range schedules {
		t.Run(tc.name, func(t *testing.T) {
			workers := newWorkers(t, 3)
			tr := faultinject.New(nil, tc.s)
			opts := tc.opts
			opts.Workers = workers
			opts.Client = &http.Client{Transport: tr}
			opts.Logf = t.Logf
			c := New(eng, opts)
			got := runJSON(t, c)
			if string(got) != string(want) {
				t.Fatalf("schedule %s broke bit-identity", tc.name)
			}
			if tc.check != nil {
				tc.check(t, tr, c)
			}
		})
	}
}

// TestWorkerKilledMidRun kills one worker after its first two data
// requests: its remaining shards must be reassigned, the result must stay
// identical, and the worker must end in the dead state.
func TestWorkerKilledMidRun(t *testing.T) {
	eng := newEngine(t)
	want := localJSON(t, eng)
	workers := newWorkers(t, 3)
	tr := faultinject.New(nil, faultinject.Schedule{KillURL: workers[1], KillAfter: 2, Seed: 5})
	c := New(eng, Options{
		Workers: workers,
		Client:  &http.Client{Transport: tr},
		Logf:    t.Logf,
	})
	got := runJSON(t, c)
	if string(got) != string(want) {
		t.Fatal("worker kill broke bit-identity")
	}
	states := c.WorkerStates()
	// The killed worker must have been taken out of rotation. Whether it
	// ends suspect or dead depends on how many attempts were already in
	// flight when it died (a suspect worker gets no new traffic, so it may
	// never accumulate the full consecutive-failure budget).
	if states[1].State == Ready || states[1].State == Joining {
		t.Errorf("killed worker ended %s, want suspect or dead", states[1].State)
	}
	if states[0].State != Ready || states[2].State != Ready {
		t.Errorf("surviving workers ended %s/%s, want ready", states[0].State, states[2].State)
	}
}

// TestDuplicateShardDelivery re-posts every shard a second time straight at
// a worker: the re-delivery must be answered (idempotently) with the exact
// same bytes.
func TestDuplicateShardDelivery(t *testing.T) {
	eng := newEngine(t)
	url := newWorkers(t, 1)[0]
	units := eng.Workload()
	for _, shard := range Partition(units[:4], 2) {
		req := actor.EvalRequest{
			Topology:    eng.TopologyDesc(),
			Seed:        eng.Seed(),
			BankVersion: actor.BankVersion,
			Units:       shard,
		}
		req.Shard.Fingerprint = req.Fingerprint()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var deliveries [2]string
		for i := range deliveries {
			resp, err := http.Post(url+"/v1/eval", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			deliveries[i] = string(data)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("delivery %d: %d %s", i, resp.StatusCode, deliveries[i])
			}
		}
		if deliveries[0] != deliveries[1] {
			t.Fatal("re-delivered shard answered different bytes")
		}
	}
}

// TestZeroWorkers: a coordinator with no workers at all completes the run
// in-process with a warning — never an error.
func TestZeroWorkers(t *testing.T) {
	eng := newEngine(t)
	want := localJSON(t, eng)
	var warnings []string
	var mu sync.Mutex
	c := New(eng, Options{Logf: func(format string, args ...any) {
		mu.Lock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	got := runJSON(t, c)
	if string(got) != string(want) {
		t.Fatal("zero-worker fallback is not byte-identical")
	}
	st := c.Stats()
	if st.Remote != 0 || st.Local != st.Shards {
		t.Errorf("zero-worker run should be fully local: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(warnings) == 0 || !strings.Contains(warnings[0], "no workers") {
		t.Errorf("degradation did not warn: %q", warnings)
	}
}

// TestAllWorkersDead: every configured worker refuses connections; the run
// degrades to in-process evaluation and still matches.
func TestAllWorkersDead(t *testing.T) {
	eng := newEngine(t)
	want := localJSON(t, eng)
	// Claim-then-close gives ports that are actually dead.
	dead := make([]string, 2)
	for i := range dead {
		ts := httptest.NewServer(http.NotFoundHandler())
		dead[i] = ts.URL
		ts.Close()
	}
	c := New(eng, Options{
		Workers: dead,
		Timeout: 2 * time.Second,
		Retries: 2,
		Logf:    t.Logf,
	})
	got := runJSON(t, c)
	if string(got) != string(want) {
		t.Fatal("total-outage fallback is not byte-identical")
	}
	st := c.Stats()
	if st.Remote != 0 || st.Local != st.Shards {
		t.Errorf("total outage should answer every shard locally: %+v", st)
	}
}

// TestWorkerStateMachine drives the transitions directly:
// joining → ready → suspect → ready → suspect → dead.
func TestWorkerStateMachine(t *testing.T) {
	w := &worker{url: "http://x"}
	if got := w.snapshot(); got != Joining {
		t.Fatalf("initial state %s, want joining", got)
	}
	w.markSuccess()
	if got := w.snapshot(); got != Ready {
		t.Fatalf("after success: %s, want ready", got)
	}
	w.markFailure()
	if got := w.snapshot(); got != Suspect {
		t.Fatalf("after one failure: %s, want suspect", got)
	}
	w.markSuccess()
	if got := w.snapshot(); got != Ready {
		t.Fatalf("suspect + success: %s, want ready", got)
	}
	w.markFailure()
	w.markFailure()
	if got := w.snapshot(); got != Suspect {
		t.Fatalf("two consecutive failures: %s, want suspect", got)
	}
	w.markFailure()
	if got := w.snapshot(); got != Dead {
		t.Fatalf("three consecutive failures: %s, want dead", got)
	}
	w.markSuccess() // dead is terminal
	if got := w.snapshot(); got != Dead {
		t.Fatalf("dead worker revived to %s", got)
	}
}

// TestReadyzDrivesHealth: a draining worker (readyz 503) is never picked.
func TestReadyzDrivesHealth(t *testing.T) {
	eng := newEngine(t)
	want := localJSON(t, eng)

	srvA, err := actor.NewServer(newEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srvA.Close)
	tsA := httptest.NewServer(srvA)
	t.Cleanup(tsA.Close)

	srvB, err := actor.NewServer(newEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srvB.Close)
	tsB := httptest.NewServer(srvB)
	t.Cleanup(tsB.Close)
	srvB.BeginDrain() // B is alive but not ready

	c := New(eng, Options{Workers: []string{tsA.URL, tsB.URL}, Logf: t.Logf})
	got := runJSON(t, c)
	if string(got) != string(want) {
		t.Fatal("drain-aware run is not byte-identical")
	}
	states := c.WorkerStates()
	if states[0].State != Ready {
		t.Errorf("live worker ended %s, want ready", states[0].State)
	}
	if states[1].State == Ready {
		t.Error("draining worker was marked ready")
	}
	if st := c.Stats(); st.Local != 0 {
		t.Errorf("one live worker should still answer everything remotely: %+v", st)
	}
}

func TestHedgeDelayFloor(t *testing.T) {
	c := New(newEngine(t), Options{HedgeFloor: 123 * time.Millisecond})
	if d := c.hedgeDelay(); d != 123*time.Millisecond {
		t.Fatalf("delay with no samples = %v, want the floor", d)
	}
	for i := 0; i < 10; i++ {
		c.lat.add(time.Duration(i+1) * 100 * time.Millisecond)
	}
	if d := c.hedgeDelay(); d < time.Second {
		t.Fatalf("p99-derived delay = %v, want ≥ 2×p99", d)
	}
}
