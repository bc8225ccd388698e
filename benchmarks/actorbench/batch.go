package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/greenhpc/actor/internal/ann"
	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/dataset"
	"github.com/greenhpc/actor/internal/exp"
	"github.com/greenhpc/actor/internal/fleet"
	"github.com/greenhpc/actor/internal/loadgen"
	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/parallel"
	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/topology"
)

// opOut is what one batch op reports.
type opOut struct {
	dur    time.Duration      // the timed public calls only; checks are untimed
	digest uint64             // bit-exact fingerprint of the op's result
	wrong  error              // failed correctness check, nil when the result is right
	layer  map[string]float64 // per-layer values of this op (mirror only)
	exact  map[string]float64 // counts that repeat exactly for a seed
}

// batchWorkload is one of the three batch pipelines. run executes the op as
// a user would call it; mirror executes the same work as the sequence of
// public calls the op is made of, with a span around each, and must land on
// the same digest: that equality is what entitles the spans to speak for
// the op.
type batchWorkload interface {
	run(seed int64) (opOut, error)
	mirror(seed int64, sp *spanLog, op string) (opOut, error)
	// extras measures the workload's once-per-run layer probes.
	extras(seed int64, v map[string]float64) error
}

func newBatch(name string, sz sizes) batchWorkload {
	switch name {
	case "train_loo":
		return trainLOO{sz}
	case "sweep_hetero":
		return sweepHetero{sz}
	default:
		return fleetSched{sz}
	}
}

func opSeed(seed int64, workload string, i int) int64 {
	return parallel.SeedFor(seed, fmt.Sprintf("%s/op/%d", workload, i))
}

// timed runs fn inside a span and returns how long it took in ms.
func timed(sp *spanLog, op string, parent int, name string, base time.Time, fn func()) (ms float64, id int) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	id = sp.add(span{Name: name, Op: op, Parent: parent, Start: int64(t0.Sub(base)), End: int64(t1.Sub(base))})
	return float64(t1.Sub(t0)) / 1e6, id
}

func hashFloats(h *uint64, vs ...float64) {
	for _, v := range vs {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			*h ^= b >> (8 * i) & 0xff
			*h *= 1099511628211
		}
	}
}

// ---- train_loo ----

type trainLOO struct{ sz sizes }

func (w trainLOO) options(seed int64) exp.Options {
	o := exp.DefaultOptions()
	if w.sz.fastTrain {
		o = exp.FastOptions()
	}
	o.Seed = seed
	return o
}

// score runs the untimed Fig 6/7 evaluation and applies the bands pinned in
// internal/exp/exp_test.go.
func (w trainLOO) score(s *exp.Suite, loo *exp.LOOModels, out *opOut) error {
	f6, f7, err := s.EvalPrediction(loo)
	if err != nil {
		return err
	}
	out.digest = 1469598103934665603
	hashFloats(&out.digest, f6.Errors...)
	samples := 0
	for _, ps := range loo.SuiteSamples {
		samples += len(ps)
	}
	out.exact = map[string]float64{"dataset.samples": float64(samples), "exp.model_err_pct": 100 * f6.MedianErr}
	top2 := f7.Hist.Fraction(1) + f7.Hist.Fraction(2)
	switch {
	case f6.MedianErr < 0.03 || f6.MedianErr > 0.20:
		out.wrong = fmt.Errorf("Fig 6 median error %.1f%% outside [3%%, 20%%]", 100*f6.MedianErr)
	case top2 < 0.70:
		out.wrong = fmt.Errorf("Fig 7 rank-1 + rank-2 share %.1f%% below 70%%", 100*top2)
	}
	return nil
}

// looCollector is the collector Suite.TrainLeaveOneOut builds for itself.
func looCollector(s *exp.Suite) *dataset.Collector {
	col := dataset.NewCollector(s.Noisy, s.Truth)
	col.Configs = s.Configs
	col.SampleConfig = s.SampleConfig()
	col.Repetitions = s.Opts.Repetitions
	col.NoiseBase = noise.New(s.Opts.Seed).Fork("collect")
	return col
}

func (w trainLOO) run(seed int64) (opOut, error) {
	var out opOut
	t0 := time.Now()
	s, err := exp.NewSuite(w.options(seed))
	if err != nil {
		return out, err
	}
	loo, err := s.TrainLeaveOneOut()
	if err != nil {
		return out, err
	}
	out.dur = time.Since(t0)
	return out, w.score(s, loo, &out)
}

// mirror is Suite.TrainLeaveOneOut written out: CollectSuite, then per
// held-out benchmark LeaveOneOut and TrainANNBank, fanned out through
// internal/parallel exactly as the original does.
func (w trainLOO) mirror(seed int64, sp *spanLog, op string) (opOut, error) {
	var out opOut
	base := time.Now()
	s, err := exp.NewSuite(w.options(seed))
	if err != nil {
		return out, err
	}
	root := sp.add(span{Name: "exp.TrainLeaveOneOut", Op: op})

	col := looCollector(s)
	var samples map[string][]dataset.PhaseSample
	collectMS, _ := timed(sp, op, root, "dataset.CollectSuite", base, func() {
		samples, err = col.CollectSuite(s.Benches)
	})
	if err != nil {
		return out, err
	}

	loo := &exp.LOOModels{
		SuiteSamples: samples,
		Banks:        map[string]*core.Bank{},
		EventCounts:  map[string]int{},
	}
	targets := s.Targets()
	bankMS := make([]float64, len(s.Benches))
	var banks []*core.Bank
	allMS, _ := timed(sp, op, root, "core.TrainANNBank x benches", base, func() {
		banks, err = parallel.Map(len(s.Benches), func(i int) (*core.Bank, error) {
			b := s.Benches[i]
			events := pmu.ReducedEventSet(pmu.SamplingBudget(b.Iterations, 0.20))
			train := dataset.LeaveOneOut(samples, b.Name)
			cfg := s.Opts.ANN
			cfg.Seed = parallel.SeedFor(seed, "loo/"+b.Name)
			var bank *core.Bank
			var terr error
			bankMS[i], _ = timed(sp, op, root, "core.TrainANNBank "+b.Name, base, func() {
				bank, terr = core.TrainANNBank(train, []int{len(events)}, targets, s.Opts.Folds, cfg)
			})
			return bank, terr
		})
	})
	if err != nil {
		return out, err
	}
	out.dur = time.Since(base)
	sp.finish(root, int64(out.dur))
	for i, b := range s.Benches {
		loo.Banks[b.Name] = banks[i]
		loo.EventCounts[b.Name] = len(pmu.ReducedEventSet(pmu.SamplingBudget(b.Iterations, 0.20)))
	}
	hits, misses := s.Truth.MemoStats()
	out.layer = map[string]float64{
		"dataset.collect_ms": collectMS,
		"core.train_all_ms":  allMS,
		"core.train_bank_ms": median(bankMS),
	}
	if hits+misses > 0 {
		out.layer["machine.memo_hit_share"] = float64(hits) / float64(hits+misses)
	}
	return out, w.score(s, loo, &out)
}

// extras measures what one op cannot show: how much the op gains from the
// second core (parallel.speedup), and the two ann entry points under
// TrainANNBank on one target's samples.
func (w trainLOO) extras(seed int64, v map[string]float64) error {
	nproc := runtime.GOMAXPROCS(0)
	wide, err := w.run(seed)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(1)
	narrow, err := w.run(seed)
	runtime.GOMAXPROCS(nproc)
	if err != nil {
		return err
	}
	v["parallel.speedup"] = narrow.dur.Seconds() / wide.dur.Seconds()

	s, err := exp.NewSuite(w.options(seed))
	if err != nil {
		return err
	}
	col := looCollector(s)
	samples, err := col.CollectSuite(s.Benches)
	if err != nil {
		return err
	}
	b := s.Benches[0]
	events := pmu.ReducedEventSet(pmu.SamplingBudget(b.Iterations, 0.20))
	set, err := dataset.ToSamples(dataset.LeaveOneOut(samples, b.Name), events, s.Targets()[0])
	if err != nil {
		return err
	}
	cfg := s.Opts.ANN
	cfg.Seed = seed
	t0 := time.Now()
	ens, err := ann.TrainEnsemble(set, s.Opts.Folds, cfg)
	if err != nil {
		return err
	}
	v["ann.train_ensemble_ms"] = msSince(t0)
	var sink float64
	t0 = time.Now()
	for i := 0; i < w.sz.probeIters; i++ {
		sink += ens.Predict(set[i%len(set)].X)
	}
	v["ann.forward_ns"] = float64(time.Since(t0)) / float64(w.sz.probeIters)
	if math.IsNaN(sink) {
		return fmt.Errorf("ann.Ensemble.Predict returned NaN")
	}
	return nil
}

// ---- sweep_hetero ----

type sweepHetero struct{ sz sizes }

func (w sweepHetero) scenarios() []exp.HeteroScenario {
	return exp.DefaultHeteroScenarios()[:w.sz.scenarios]
}

// Pinned in internal/exp/hetero_test.go: the study is noiseless, so these
// hold for every seed.
var heteroPinned = map[string]float64{"64 big": 52.62, "64b+64L": 66.39}

// heteroCheck fingerprints the gains in (scenario, benchmark) order and
// checks the pinned averages.
func heteroCheck(scenarios []exp.HeteroScenario, benches int, gain func(si, bi int) float64) (digest uint64, wrong error) {
	digest = 1469598103934665603
	for si, sc := range scenarios {
		var sum float64
		for bi := 0; bi < benches; bi++ {
			hashFloats(&digest, gain(si, bi))
			sum += gain(si, bi)
		}
		if want, ok := heteroPinned[sc.Name]; ok && wrong == nil {
			if got := 100 * sum / float64(benches); math.Abs(got-want) > 0.5 {
				wrong = fmt.Errorf("AverageGain(%q) = %.2f%%, pinned %.2f%%", sc.Name, got, want)
			}
		}
	}
	return digest, wrong
}

func (w sweepHetero) suite(seed int64) (*exp.Suite, error) {
	o := exp.FastOptions()
	o.Seed = seed
	return exp.NewSuite(o)
}

func (w sweepHetero) run(seed int64) (opOut, error) {
	var out opOut
	t0 := time.Now()
	s, err := w.suite(seed)
	if err != nil {
		return out, err
	}
	r, err := s.HeteroScaling(w.scenarios())
	if err != nil {
		return out, err
	}
	out.dur = time.Since(t0)
	out.digest, out.wrong = heteroCheck(r.Scenarios, len(s.Benches), func(si, bi int) float64 { return r.Gain[r.Scenarios[si].Name][s.Benches[bi].Name] })
	return out, nil
}

// mirror is Suite.HeteroScaling written out: per scenario ParseDesc,
// machine.New and BalancedPlacements, then one RunPhaseSweep per (scenario,
// benchmark, phase) fanned out through internal/parallel.
func (w sweepHetero) mirror(seed int64, sp *spanLog, op string) (opOut, error) {
	var out opOut
	base := time.Now()
	s, err := w.suite(seed)
	if err != nil {
		return out, err
	}
	root := sp.add(span{Name: "exp.HeteroScaling", Op: op})
	scenarios := w.scenarios()
	type scale struct {
		m          *machine.Machine
		placements []topology.Placement
	}
	scales := make([]scale, len(scenarios))
	var enumMS, newMS float64
	placements := 0
	for si, sc := range scenarios {
		var topo *topology.Topology
		ms, _ := timed(sp, op, root, "topology.ParseDesc "+sc.Desc, base, func() { topo, err = topology.ParseDesc(sc.Desc) })
		if err != nil {
			return out, err
		}
		enumMS += ms
		ms, _ = timed(sp, op, root, "machine.New "+sc.Desc, base, func() { scales[si].m, err = machine.New(topo) })
		if err != nil {
			return out, err
		}
		newMS += ms
		ms, _ = timed(sp, op, root, "topology.BalancedPlacements "+sc.Desc, base, func() { scales[si].placements = topology.BalancedPlacements(topo) })
		enumMS += ms
		placements += len(scales[si].placements)
	}
	nb := len(s.Benches)
	sweepMS := make([]float64, len(scenarios)*nb)
	var swept int
	for _, b := range s.Benches {
		swept += len(b.Phases)
	}
	gains, err := parallel.Map(len(scenarios)*nb, func(i int) (float64, error) {
		sc, b := scales[i/nb], s.Benches[i%nb]
		dst := make([]machine.Result, len(sc.placements))
		var tAll, tBest float64
		for pi := range b.Phases {
			ms, _ := timed(sp, op, root, "machine.RunPhaseSweep", base, func() {
				sc.m.RunPhaseSweep(&b.Phases[pi], b.Idiosyncrasy, sc.placements, dst)
			})
			sweepMS[i] += ms
			ta := dst[len(dst)-1].TimeSec
			tb := ta
			for ri := range dst {
				if tt := dst[ri].TimeSec; tt < tb {
					tb = tt
				}
			}
			tAll += ta
			tBest += tb
		}
		return 1 - tBest/tAll, nil
	})
	if err != nil {
		return out, err
	}
	out.dur = time.Since(base)
	sp.finish(root, int64(out.dur))
	var sumSweep float64
	for _, ms := range sweepMS {
		sumSweep += ms
	}
	out.layer = map[string]float64{
		"topology.enumerate_ms": enumMS,
		"machine.new_ms":        newMS,
		"machine.sweep_ms":      sumSweep,
		// Sweeps run on every worker at once: their summed time per worker,
		// as a share of the op's wall time.
		"machine.sweep_share":            sumSweep / float64(parallel.Workers()) / (float64(out.dur) / 1e6),
		"machine.sweep_us_per_placement": 1e3 * sumSweep / float64(placements*swept),
	}
	out.exact = map[string]float64{"topology.placements": float64(placements)}
	out.digest, out.wrong = heteroCheck(scenarios, nb, func(si, bi int) float64 { return gains[si*nb+bi] })
	return out, nil
}

func (sweepHetero) extras(int64, map[string]float64) error { return nil }

// ---- fleet_sched ----

type fleetSched struct{ sz sizes }

func (w fleetSched) stream(seed int64) fleet.StreamConfig {
	return fleet.StreamConfig{Jobs: w.sz.fleetJobs, Seed: seed, ArrivalRate: 60, MeanSize: 3}
}

func (w fleetSched) check(r *fleet.Result, out *opOut) {
	out.digest = r.Digest()
	out.exact = map[string]float64{"fleet.scored_per_job": float64(r.ScoredMachines) / float64(w.sz.fleetJobs)}
	switch {
	case r.Violations != 0:
		out.wrong = fmt.Errorf("%d QoS violations", r.Violations)
	case len(r.Placed) != w.sz.fleetJobs:
		out.wrong = fmt.Errorf("%d of %d jobs placed", len(r.Placed), w.sz.fleetJobs)
	}
}

func (w fleetSched) run(seed int64) (opOut, error) {
	return w.mirror(seed, nil, "")
}

// mirror is the op itself: a cold actorfleet run already is three public
// calls, so the traced and the untraced op differ only in the spans.
func (w fleetSched) mirror(seed int64, sp *spanLog, op string) (opOut, error) {
	var out opOut
	base := time.Now()
	stage := func(name string, fn func()) float64 {
		if sp == nil {
			t0 := time.Now()
			fn()
			return msSince(t0)
		}
		ms, _ := timed(sp, op, 0, name, base, fn)
		return ms
	}
	var f *fleet.Fleet
	var jobs []fleet.Job
	var r *fleet.Result
	var err error
	parseMS := stage("fleet.ParseFleet", func() { f, err = fleet.ParseFleet(w.sz.fleetSpec, nil) })
	if err != nil {
		return out, err
	}
	genMS := stage("fleet.GenJobs", func() { jobs, err = fleet.GenJobs(w.stream(seed)) })
	if err != nil {
		return out, err
	}
	var ms0, ms1 runtime.MemStats
	if sp != nil {
		runtime.ReadMemStats(&ms0)
	}
	schedMS := stage("fleet.Schedule", func() { r, err = fleet.Schedule(f, jobs, fleet.Options{Scorer: fleet.ScorerIncremental}) })
	if err != nil {
		return out, err
	}
	out.dur = time.Since(base)
	if sp != nil {
		runtime.ReadMemStats(&ms1)
		out.layer = map[string]float64{
			"fleet.parse_ms":        parseMS,
			"fleet.genjobs_ms":      genMS,
			"fleet.schedule_ms":     schedMS,
			"fleet.schedule_share":  schedMS / (float64(out.dur) / 1e6),
			"fleet.decisions_per_s": float64(w.sz.fleetJobs) / (schedMS / 1e3),
			"fleet.allocs_per_job":  float64(ms1.Mallocs-ms0.Mallocs) / float64(w.sz.fleetJobs),
		}
	}
	w.check(r, &out)
	return out, nil
}

// extras sets the incremental scorer's fleet ED² against the
// interference-blind bin-packer's on the same stream: a quality witness
// that a faster scheduler must not move.
func (w fleetSched) extras(seed int64, v map[string]float64) error {
	f, err := fleet.ParseFleet(w.sz.fleetSpec, nil)
	if err != nil {
		return err
	}
	jobs, err := fleet.GenJobs(w.stream(seed))
	if err != nil {
		return err
	}
	inc, err := fleet.Schedule(f, jobs, fleet.Options{Scorer: fleet.ScorerIncremental})
	if err != nil {
		return err
	}
	bin, err := fleet.Schedule(f, jobs, fleet.Options{Scorer: fleet.ScorerBinpack})
	if err != nil {
		return err
	}
	v["fleet.ed2_vs_binpack"] = inc.ED2 / bin.ED2
	return nil
}

// ---- the two runs ----

// runBatch is the untraced run of a batch workload: the end-to-end metrics.
// Ops run one at a time until the window has passed; ops_per_s divides by
// the ops' own time, so the untimed checks between them do not count.
func runBatch(name string, seed int64, seconds float64, sz sizes) (*result, error) {
	w := newBatch(name, sz)
	var setups []float64
	for r := 0; r < sz.setups; r++ {
		t0 := time.Now()
		for j := 0; j < sz.batchWarm; j++ {
			out, err := w.run(parallel.SeedFor(seed, fmt.Sprintf("%s/warm/%d/%d", name, r, j)))
			if err != nil {
				return nil, err
			}
			if out.wrong != nil {
				return nil, fmt.Errorf("%s warm-up: %w", name, out.wrong)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	res := &result{}
	start := time.Now()
	log := newLatLog(start, time.Second, 256)
	var busy time.Duration
	var rss []float64 // resident set after each op
	for i := 0; time.Since(start).Seconds() < seconds; i++ {
		out, err := w.run(opSeed(seed, name, i))
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if out.wrong != nil {
			res.Failed++
			if res.note == nil {
				res.note = out.wrong
			}
			continue
		}
		busy += out.dur
		log.add(out.dur, time.Now())
		rss = append(rss, statusMB("VmRSS"))
	}
	sum := summarize(windows([]*latLog{log}), fullWindows(time.Since(start)))
	res.values = map[string]float64{
		"setup_s":   median(setups),
		"ops_per_s": float64(sum.n) / busy.Seconds(),
		"op_p50_us": sum.p50us,
		"op_p99_us": sum.p99us,
		"rss_mb":    median(rss),
	}
	res.detail = fmt.Sprintf("%d ops, %.2fs in ops over a %.2fs window; p50 over %d samples, p99 as median of %d windows of ~%.0f samples (a window's p99 is its slowest op)",
		res.Attempted, busy.Seconds(), time.Since(start).Seconds(), sum.n, sum.windows, sum.perWindow)
	return res, nil
}

// exactOps is how many leading ops feed the metrics that must repeat exactly
// for a seed: a time-bounded window completes a varying number of ops, its
// first few are always the same ones.
const exactOps = 4

// runBatchTraced is the traced run of a batch workload: each op runs once as
// itself and once as its mirror, the two must agree to the last bit, and
// the mirror's spans give the per-layer numbers.
func runBatchTraced(name string, seed int64, seconds float64, sz sizes, tracePath string) (*result, error) {
	w := newBatch(name, sz)
	for j := 0; j < sz.batchWarm; j++ {
		if _, err := w.run(parallel.SeedFor(seed, fmt.Sprintf("%s/warm/0/%d", name, j))); err != nil {
			return nil, err
		}
	}
	v := map[string]float64{}
	if err := w.extras(opSeed(seed, name, 0), v); err != nil {
		return nil, err
	}

	res := &result{}
	spans := &spanLog{}
	layer := map[string][]float64{}
	exact := map[string][]float64{}
	var realBusy, mirrorBusy time.Duration
	var hist loadgen.Hist
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < seconds; i++ {
		s := opSeed(seed, name, i)
		real, err := w.run(s)
		if err != nil {
			return nil, err
		}
		mir, err := w.mirror(s, spans, fmt.Sprintf("op-%d", i))
		if err != nil {
			return nil, err
		}
		res.Attempted++
		wrong := real.wrong
		if wrong == nil {
			wrong = mir.wrong
		}
		if wrong == nil && real.digest != mir.digest {
			wrong = fmt.Errorf("op %d: mirror digest %016x differs from the op's %016x", i, mir.digest, real.digest)
		}
		if wrong != nil {
			res.Failed++
			if res.note == nil {
				res.note = wrong
			}
			continue
		}
		realBusy += real.dur
		mirrorBusy += mir.dur
		hist.Add(int64(real.dur))
		for k, x := range mir.layer {
			layer[k] = append(layer[k], x)
		}
		if i < exactOps {
			for k, x := range mir.exact {
				exact[k] = append(exact[k], x)
			}
		}
	}
	for k, xs := range layer {
		v[k] = median(xs)
	}
	for k, xs := range exact {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		v[k] = sum / float64(len(xs))
	}
	if hist.Count() > 0 {
		v["loadgen.trace_overhead_share"] = 1 - realBusy.Seconds()/mirrorBusy.Seconds()
		v["loadgen.rtt_p99_us"] = float64(hist.Quantile(0.99)) / 1e3
		v["loadgen.rtt_p999_us"] = float64(hist.Quantile(0.999)) / 1e3
		v["loadgen.rtt_samples"] = float64(hist.Count())
	}
	v["host.peak_rss_mb"] = statusMB("VmHWM")
	if err := spans.write(tracePath); err != nil {
		return nil, err
	}
	res.values = v
	res.detail = fmt.Sprintf("%d ops, each run as itself and as its mirror; %d spans in %s", res.Attempted, len(spans.spans), tracePath)
	return res, nil
}
