// Benchmark harness: one testing.B benchmark per table/figure in the
// paper's evaluation, plus micro-benchmarks for the core building blocks
// and ablation benchmarks for the paper's design choices (ANN over MLR, the
// ensemble size, prediction over empirical search).
//
// The figure benchmarks report the paper-relevant headline metrics via
// b.ReportMetric, so `go test -bench=Fig -benchmem` regenerates both the
// performance and the reproduction numbers.
package actor_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	pubactor "github.com/greenhpc/actor/pkg/actor"

	"github.com/greenhpc/actor/internal/ann"
	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/dataset"
	"github.com/greenhpc/actor/internal/exp"
	"github.com/greenhpc/actor/internal/fleet"
	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/mlr"
	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/npb"
	"github.com/greenhpc/actor/internal/pmu"
	"github.com/greenhpc/actor/internal/power"
	"github.com/greenhpc/actor/internal/topology"
)

// shared state for the expensive leave-one-out training, built once.
var (
	suiteOnce sync.Once
	suite     *exp.Suite
	looModels *exp.LOOModels
	suiteErr  error
)

// benchSink keeps the compiler from discarding a benchmarked pure call.
var benchSink float64

func sharedSuite(b *testing.B) (*exp.Suite, *exp.LOOModels) {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = exp.NewSuite(exp.FastOptions())
		if suiteErr != nil {
			return
		}
		looModels, suiteErr = suite.TrainLeaveOneOut()
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite, looModels
}

// --- Figure benchmarks ---------------------------------------------------

func BenchmarkFig1ExecutionTimes(b *testing.B) {
	s, _ := sharedSuite(b)
	var last *exp.Fig1Result
	for i := 0; i < b.N; i++ {
		r, err := s.Fig1ExecutionTimes()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Speedup("BT", "4"), "BT-speedup4(paper=2.69)")
	b.ReportMetric(last.Speedup("IS", "4"), "IS-speedup4(paper=0.60)")
	b.ReportMetric(last.Speedup("MG", "2b"), "MG-speedup2b(paper=1.29)")
}

func BenchmarkFig2PhaseIPC(b *testing.B) {
	s, _ := sharedSuite(b)
	var last *exp.Fig2Result
	for i := 0; i < b.N; i++ {
		r, err := s.Fig2PhaseIPC("SP")
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	lo, hi := last.MaxIPCRange()
	b.ReportMetric(lo, "SP-minPhaseIPC(paper=0.32)")
	b.ReportMetric(hi, "SP-maxPhaseIPC(paper=4.64)")
}

func BenchmarkFig3PowerEnergy(b *testing.B) {
	s, _ := sharedSuite(b)
	var last *exp.Fig3Result
	for i := 0; i < b.N; i++ {
		r, err := s.Fig3PowerEnergy()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	p, e, err := last.GeoMeanNormalized("4", "1")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(p, "geomean-power-4v1(paper≈1.14)")
	b.ReportMetric(e, "geomean-energy-4v1")
}

func BenchmarkFig6PredictionCDF(b *testing.B) {
	s, loo := sharedSuite(b)
	var f6 *exp.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		f6, _, err = s.EvalPrediction(loo)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f6.MedianErr*100, "median-error-pct(paper=9.1)")
	b.ReportMetric(f6.FracUnder5*100, "under5-pct(paper=29.2)")
}

func BenchmarkFig7RankSelection(b *testing.B) {
	s, loo := sharedSuite(b)
	var f7 *exp.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		_, f7, err = s.EvalPrediction(loo)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f7.Hist.Fraction(1)*100, "rank1-pct(paper=59.3)")
	b.ReportMetric(f7.Hist.Fraction(2)*100, "rank2-pct(paper=28.8)")
}

func BenchmarkFig8Throttling(b *testing.B) {
	s, loo := sharedSuite(b)
	var r *exp.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = s.Fig8Throttling(loo)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((1-r.AverageNormalized("Prediction", exp.MetricTime))*100, "perf-gain-pct(paper=6.5)")
	b.ReportMetric((1-r.AverageNormalized("Prediction", exp.MetricED2))*100, "ed2-saving-pct(paper=17.2)")
	b.ReportMetric((1-r.Normalized("IS", "Prediction", exp.MetricED2))*100, "IS-ed2-saving-pct(paper=71.6)")
}

// BenchmarkExtensionDVFS reports the joint concurrency+DVFS study's AVG
// normalised ED² per strategy.
func BenchmarkExtensionDVFS(b *testing.B) {
	s, _ := sharedSuite(b)
	var r *exp.DVFSResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = s.DVFSStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	avg := func(col string) float64 {
		var sum float64
		for _, bench := range r.Order {
			sum += r.ED2[bench][col]
		}
		return sum / float64(len(r.Order))
	}
	b.ReportMetric(avg("concurrency-only"), "conc-only-ED2")
	b.ReportMetric(avg("dvfs-only"), "dvfs-only-ED2")
	b.ReportMetric(avg("joint"), "joint-ED2")
}

// reportScalingFanOut closes a scaling-study benchmark: with the timer
// stopped it runs op once more at GOMAXPROCS=1 and reports speedup — that
// serial wall time over the benchmark's mean op, i.e. what the study's
// (scale × benchmark × phase) fan-out gains from the cores it was given —
// and tasks, the number of sweeps one op fans out.
func reportScalingFanOut(b *testing.B, s *exp.Suite, scales int, op func() error) {
	b.StopTimer()
	perOp := b.Elapsed() / time.Duration(b.N)
	prev := runtime.GOMAXPROCS(1)
	t0 := time.Now()
	err := op()
	serial := time.Since(t0)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		b.Fatal(err)
	}
	phases := 0
	for _, bench := range s.Benches {
		phases += len(bench.Phases)
	}
	b.ReportMetric(serial.Seconds()/perOp.Seconds(), "speedup")
	b.ReportMetric(float64(scales*phases), "tasks")
}

// BenchmarkExtensionFutureScaling reports the oracle throttling gain at 4
// and 32 cores, and what the study's fan-out gains over one worker.
func BenchmarkExtensionFutureScaling(b *testing.B) {
	s, _ := sharedSuite(b)
	var r *exp.FutureScalingResult
	op := func() (err error) {
		r, err = s.FutureScaling()
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	reportScalingFanOut(b, s, len(r.Cores), op)
	b.ReportMetric(r.AverageGain(4)*100, "gain4cores-pct")
	b.ReportMetric(r.AverageGain(32)*100, "gain32cores-pct")
}

// BenchmarkExtensionHeteroScaling reports the oracle throttling gain on the
// default heterogeneous scenarios (64-core homogeneous baseline up to the
// 128-core big/little part), exercising the balanced placement enumeration
// and the class-aware sweep solve end to end, and what the study's fan-out
// gains over one worker.
func BenchmarkExtensionHeteroScaling(b *testing.B) {
	s, _ := sharedSuite(b)
	var r *exp.HeteroScalingResult
	op := func() (err error) {
		r, err = s.HeteroScaling(nil)
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	reportScalingFanOut(b, s, len(r.Scenarios), op)
	b.ReportMetric(r.AverageGain("64 big")*100, "gain64big-pct")
	b.ReportMetric(r.AverageGain("64b+64L")*100, "gain128hetero-pct")
}

// BenchmarkStrategyReplay measures the execute() engine's whole-benchmark
// strategy replay: one RunPhase per phase execution on a noisy fork of a
// memoised machine, the way the suite measures, so after the first run
// every execution is a memo hit plus its measurement-noise draw.
func BenchmarkStrategyReplay(b *testing.B) {
	m, err := machine.New(topology.QuadCoreXeon())
	if err != nil {
		b.Fatal(err)
	}
	m = m.WithMemo()
	noisy := m.WithNoise(noise.New(42).Fork("machine"))
	env := core.NewEnv(noisy, m, power.Default())
	bench, _ := npb.ByName("SP")
	strat := &core.Static{Config: "4"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strat.Run(bench, env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (the paper's design choices) ---------------------

// BenchmarkAblationANNvsMLR compares the paper's ANN ensembles against the
// prior-work multiple-linear-regression predictor on identical data.
func BenchmarkAblationANNvsMLR(b *testing.B) {
	s, _ := sharedSuite(b)
	collector := dataset.NewCollector(s.Noisy, s.Truth)
	collector.Repetitions = 3
	samples, err := collector.CollectSuite(s.Benches)
	if err != nil {
		b.Fatal(err)
	}
	train := dataset.LeaveOneOut(samples, "SP")
	test := samples["SP"]
	events := pmu.FullEventSet()
	targets := s.Targets()

	evalPred := func(p *core.Predictor) float64 {
		var errSum float64
		var n int
		var vals []float64
		for _, ps := range test {
			vals = p.PredictInto(vals, &ps.Rates)
			for i, tgt := range p.TargetNames() {
				obs := ps.MeasuredIPC[tgt]
				if obs > 0 {
					d := (vals[i] - obs) / obs
					if d < 0 {
						d = -d
					}
					errSum += d
					n++
				}
			}
		}
		return errSum / float64(n)
	}

	// The fast trainer's pipeline configuration (mini-batch GEMM +
	// warm-start fold fine-tuning, see exp.FastOptions) — snapshots track
	// its accuracy/cost tradeoff against MLR.
	cfg := ann.DefaultConfig()
	cfg.MaxEpochs = 150
	cfg.WarmStartEpochs = 30
	b.Run("batched", func(b *testing.B) {
		var annErr, mlrErr float64
		for i := 0; i < b.N; i++ {
			annBank, err := core.TrainANNBank(train, []int{12}, targets, 5, cfg)
			if err != nil {
				b.Fatal(err)
			}
			mlrBank, err := core.TrainMLRBank(train, []int{12}, targets, 1e-6)
			if err != nil {
				b.Fatal(err)
			}
			annErr = evalPred(annBank.Predictors()[0])
			mlrErr = evalPred(mlrBank.Predictors()[0])
		}
		b.ReportMetric(annErr*100, "ann-mean-error-pct")
		b.ReportMetric(mlrErr*100, "mlr-mean-error-pct")
	})
	_ = events
}

// BenchmarkAblationEnsembleSize measures accuracy and cost of k-fold
// ensembles (k = 3, 10) against a single network.
func BenchmarkAblationEnsembleSize(b *testing.B) {
	s, _ := sharedSuite(b)
	collector := dataset.NewCollector(s.Noisy, s.Truth)
	collector.Repetitions = 3
	samples, err := collector.CollectSuite(s.Benches)
	if err != nil {
		b.Fatal(err)
	}
	train := dataset.LeaveOneOut(samples, "CG")
	events := pmu.FullEventSet()
	ss, err := dataset.ToSamples(train, events, "2b")
	if err != nil {
		b.Fatal(err)
	}
	cfg := ann.DefaultConfig()
	cfg.MaxEpochs = 120
	cfg.WarmStartEpochs = 30
	for _, k := range []int{3, 10} {
		kName := map[int]string{3: "k3", 10: "k10"}[k]
		b.Run(kName+"/batched", func(b *testing.B) {
			var est float64
			for i := 0; i < b.N; i++ {
				ens, err := ann.TrainEnsemble(ss, k, cfg)
				if err != nil {
					b.Fatal(err)
				}
				est = ens.EstimateMSE
			}
			b.ReportMetric(est, "estimate-mse")
		})
	}
}

// BenchmarkAblationSearchVsPrediction compares the online cost and outcome
// of empirical search [17] against ANN prediction on a short-iteration
// benchmark, where search overhead hurts most.
func BenchmarkAblationSearchVsPrediction(b *testing.B) {
	s, loo := sharedSuite(b)
	env := core.NewEnv(s.Noisy, s.Truth, s.Power)
	is, err := s.Bench("IS")
	if err != nil {
		b.Fatal(err)
	}
	var tSearch, tPred float64
	for i := 0; i < b.N; i++ {
		rs, err := (&core.Search{}).Run(is, env)
		if err != nil {
			b.Fatal(err)
		}
		rp, err := (&core.Prediction{Bank: loo.Banks["IS"]}).Run(is, env)
		if err != nil {
			b.Fatal(err)
		}
		tSearch, tPred = rs.TimeSec, rp.TimeSec
	}
	b.ReportMetric(tSearch, "search-time-sec")
	b.ReportMetric(tPred, "prediction-time-sec")
}

// --- Fleet scheduling benchmarks ------------------------------------------

// fleetBench builds the seeded fleet + job stream pair the fleet
// benchmarks share. The spec lists the superset-shape class first so the
// canonical (congestion, index) order probes universally-feasible
// machines before the packed-only ones.
func fleetBench(b *testing.B, spec string, jobs int, rate float64) (*fleet.Fleet, []fleet.Job) {
	b.Helper()
	f, err := fleet.ParseFleet(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := fleet.GenJobs(fleet.StreamConfig{Jobs: jobs, Seed: 42, ArrivalRate: rate, MeanSize: 3})
	if err != nil {
		b.Fatal(err)
	}
	return f, stream
}

// BenchmarkFleetGenJobs generates the 10k-job stream BenchmarkFleetSchedule
// places: four draws per job from the job's own counter-based stream.
func BenchmarkFleetGenJobs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.GenJobs(fleet.StreamConfig{Jobs: 10000, Seed: 42, ArrivalRate: 60, MeanSize: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetSchedule is the fleet headline: 10k jobs against a 1000
// machine heterogeneous fleet on the shipped incremental scorer (the solo
// table, interned resident states with one probe bucket each, and one
// verdict per job class and state). Every iteration asserts the schedule
// digest of the first run, and internal/fleet's TestScorerBitIdentity holds
// that digest to the O(M) reference's. states is why the incremental probe
// runs in order on one goroutine: with under a hundred states against some
// hundred thousand probes, nearly every probe is a table hit and there is
// no work for a fan-out to overlap. A workload that multiplies them is the
// one to re-measure that choice on.
func BenchmarkFleetSchedule(b *testing.B) {
	const spec = "400*4x2+2x2:little,600*2x2"
	f, stream := fleetBench(b, spec, 10000, 60)
	ref, err := fleet.Schedule(f, stream, fleet.Options{})
	if err != nil {
		b.Fatal(err)
	}
	bp, err := fleet.Schedule(f, stream, fleet.Options{Scorer: fleet.ScorerBinpack})
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fleet.ScorerIncremental, func(b *testing.B) {
		b.ReportAllocs()
		var res *fleet.Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = fleet.Schedule(f, stream, fleet.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Digest() != ref.Digest() {
				b.Fatalf("digest %016x != first run's %016x", res.Digest(), ref.Digest())
			}
		}
		b.ReportMetric(float64(res.ScoredMachines)/float64(len(stream)), "scored-machines/job")
		b.ReportMetric(res.ED2/bp.ED2, "ED2-vs-binpack")
		b.ReportMetric(float64(res.Violations), "qos-violations")
		b.ReportMetric(float64(res.States), "states")
	})
}

// BenchmarkFleetScheduleSmall is the trend-friendly variant: a 16-machine
// mixed fleet under the same policy, cheap enough for -benchtime scaling
// to produce stable ns/op.
func BenchmarkFleetScheduleSmall(b *testing.B) {
	f, stream := fleetBench(b, "12*2x2,4*1x4+2x2:little", 200, 2)
	b.Run(fleet.ScorerIncremental, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fleet.Schedule(f, stream, fleet.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Micro-benchmarks ------------------------------------------------------

func BenchmarkMachineRunPhase(b *testing.B) {
	m, err := machine.New(topology.QuadCoreXeon())
	if err != nil {
		b.Fatal(err)
	}
	bench, _ := npb.ByName("SP")
	cfg, _ := topology.ConfigByName("4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunPhase(&bench.Phases[i%len(bench.Phases)], bench.Idiosyncrasy, cfg)
	}
}

// BenchmarkRunPhaseCached measures the memoised replay path: the same
// (phase, placement) pairs every timestep, as strategy replays and figure
// drivers see them (compare against BenchmarkMachineRunPhase for the
// cache's speedup).
func BenchmarkRunPhaseCached(b *testing.B) {
	m, err := machine.New(topology.QuadCoreXeon())
	if err != nil {
		b.Fatal(err)
	}
	m = m.WithMemo()
	bench, _ := npb.ByName("SP")
	cfg, _ := topology.ConfigByName("4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunPhase(&bench.Phases[i%len(bench.Phases)], bench.Idiosyncrasy, cfg)
	}
	b.StopTimer()
	hits, misses := m.MemoStats()
	if total := hits + misses; total > 0 {
		b.ReportMetric(float64(hits)/float64(total)*100, "hit-rate-pct")
	}
}

// BenchmarkLOOTrainParallel measures the full leave-one-out pipeline —
// suite-wide sample collection plus per-benchmark bank training — on the
// parallel engine at the current GOMAXPROCS.
func BenchmarkLOOTrainParallel(b *testing.B) {
	s, err := exp.NewSuite(exp.FastOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TrainLeaveOneOut(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainANNBank measures one leave-one-out bank at the paper
// fidelity options (exp.DefaultOptions: 10 folds, B = 8, warm start): the
// four targets of CG's held-out training set in one lockstep run per fold
// member — the unit of work train_loo repeats once per benchmark.
func BenchmarkTrainANNBank(b *testing.B) {
	s, err := exp.NewSuite(exp.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	collector := dataset.NewCollector(s.Noisy, s.Truth)
	collector.Configs = s.Configs
	collector.SampleConfig = s.SampleConfig()
	collector.Repetitions = s.Opts.Repetitions
	samples, err := collector.CollectSuite(s.Benches)
	if err != nil {
		b.Fatal(err)
	}
	cg, err := s.Bench("CG")
	if err != nil {
		b.Fatal(err)
	}
	events := len(pmu.ReducedEventSet(pmu.SamplingBudget(cg.Iterations, pmu.MaxSampleFraction)))
	train := dataset.LeaveOneOut(samples, "CG")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TrainANNBank(train, []int{events}, s.Targets(), s.Opts.Folds, s.Opts.ANN); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnsemblePredict measures one k-member [13,16,1] ensemble
// prediction — scaler, the stacked forward pass, member mean — on distinct
// inputs: the unit of work a bank predict repeats once per target.
func BenchmarkEnsemblePredict(b *testing.B) {
	for _, k := range []int{5, 10} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			nets := make([]*ann.Network, k)
			for m := range nets {
				net, err := ann.NewNetwork([]int{13, 16, 1}, rng)
				if err != nil {
					b.Fatal(err)
				}
				nets[m] = net
			}
			sc := &ann.Scaler{Mean: make([]float64, 13), Std: make([]float64, 13), YMax: 1}
			for i := range sc.Std {
				sc.Mean[i], sc.Std[i] = rng.Float64(), 0.5+rng.Float64()
			}
			ens, err := ann.NewEnsemble(nets, sc, 0)
			if err != nil {
				b.Fatal(err)
			}
			xs := make([][]float64, 64)
			for r := range xs {
				xs[r] = make([]float64, 13)
				for i := range xs[r] {
					xs[r][i] = rng.Float64()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += ens.Predict(xs[i%len(xs)])
			}
		})
	}
}

// BenchmarkRunPhaseSweepHetero measures a full memo-less RunPhaseSweep over a
// large placement set: one phase across the 4 224 balanced placements of the
// 128-core big/little machine per iteration, every placement's lane list
// resolved and its fixed point solved (internal/machine's BenchmarkSweepLanes
// covers only the lane step inside it). The hetero study itself takes each
// phase's minimum through machine.Search (internal/machine's
// BenchmarkBestTimeHetero); this is
// what a caller that needs every placement's Result pays.
func BenchmarkRunPhaseSweepHetero(b *testing.B) {
	topo, err := topology.ParseDesc("16x4+32x2:little")
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(topo)
	if err != nil {
		b.Fatal(err)
	}
	placements := topology.BalancedPlacements(topo)
	dst := make([]machine.Result, len(placements))
	bench, _ := npb.ByName("SP")
	m.RunPhaseSweep(&bench.Phases[0], bench.Idiosyncrasy, placements, dst) // warm the pooled scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunPhaseSweep(&bench.Phases[i%len(bench.Phases)], bench.Idiosyncrasy, placements, dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(placements)), "ns/placement")
}

// BenchmarkHeteroSearchBuild is the hetero study's build stage on its largest
// machine: machine.NewBalancedSearch over the 4 224 balanced placements of
// 16x4+32x2:little, from the topology's occupancies to the search's flat
// arrays. ns/placement is per candidate.
func BenchmarkHeteroSearchBuild(b *testing.B) {
	topo, err := topology.ParseDesc("16x4+32x2:little")
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(topo)
	if err != nil {
		b.Fatal(err)
	}
	var s *machine.Search
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = machine.NewBalancedSearch(m)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Len()), "ns/placement")
}

func BenchmarkMLRFit(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]ann.Sample, 400)
	for i := range samples {
		x := make([]float64, 13)
		for j := range x {
			x[j] = rng.Float64()
		}
		samples[i] = ann.Sample{X: x, Y: x[0] + 2*x[5]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mlr.Fit(samples, 1e-8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPMURotation(b *testing.B) {
	file := pmu.NewCounterFile()
	truth := pmu.Counts{
		pmu.Instructions: 1e9, pmu.Cycles: 2e9,
		pmu.L2Misses: 1e6, pmu.BusTransMem: 2e6, pmu.L1DMisses: 5e6,
		pmu.L2References: 6e6, pmu.BusDrdyClocks: 1e8, pmu.ResourceStalls: 9e8,
		pmu.LoadsRetired: 2e8, pmu.StoresRetired: 1e8, pmu.DTLBMisses: 1e5,
		pmu.BranchesRet: 8e7, pmu.BranchMisses: 1e6, pmu.L1DReferences: 3e8,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := pmu.PlanRotation(pmu.FullEventSet(), 0)
		if err != nil {
			b.Fatal(err)
		}
		s := pmu.NewSampler(file, plan)
		for !s.Done() {
			if err := s.Observe(truth); err != nil {
				b.Fatal(err)
			}
		}
		s.Rates()
	}
}

// benchBody is a rewindable no-op-Close request body so the serving
// benchmarks can reuse a single http.Request across iterations.
type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// benchWriter is a ResponseWriter that keeps its header map across
// iterations and discards the body. httptest.NewRecorder allocates a
// recorder, a header map and a bytes.Buffer per request, which would
// drown out the handler's own allocation profile — the quantity under
// test now that the memo-hit path is supposed to be allocation-free.
type benchWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *benchWriter) Header() http.Header  { return w.h }
func (w *benchWriter) WriteHeader(code int) { w.code = code }
func (w *benchWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// newServeBench trains a fast ANN bank, builds a server and returns the
// pieces of a zero-allocation request loop: a reusable request with a
// rewindable body, the raw body bytes and a header-preserving writer.
func newServeBench(b *testing.B) (srv *pubactor.Server, req *http.Request, rdr *benchBody, body []byte, w *benchWriter) {
	eng, err := pubactor.New(pubactor.WithFast(), pubactor.WithRepetitions(1))
	if err != nil {
		b.Fatal(err)
	}
	bank, err := eng.Train(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	srv, err = pubactor.NewServer(eng)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	rates := pubactor.Rates{"IPC": 1.1}
	for i, name := range bank.Meta().EventSets[0] {
		rates[name] = 0.001 * float64(i+1)
	}
	body, err = json.Marshal(pubactor.PredictRequest{Rates: rates})
	if err != nil {
		b.Fatal(err)
	}
	rdr = &benchBody{}
	req = httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	req.Body = rdr
	w = &benchWriter{h: make(http.Header)}
	return srv, req, rdr, body, w
}

// BenchmarkServePredict measures online serving throughput through the
// public facade: one /v1/predict request per iteration against the actord
// HTTP handler over a fast-trained ANN bank, reporting requests per second
// alongside ns/op. Steady state this is the memo-hit path — pooled body
// read, wire-codec parse, memo probe, one Write — and must not allocate.
func BenchmarkServePredict(b *testing.B) {
	srv, req, rdr, body, w := newServeBench(b)
	// Warm the pools, the memo entry and the writer's header map so the
	// timed loop measures steady state.
	rdr.Reset(body)
	srv.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		b.Fatalf("predict = %d", w.code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rdr.Reset(body)
		w.code = 0
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("predict = %d", w.code)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServePredictMiss is the same request loop with every iteration
// a memo miss: a six-digit IPC fraction in the body is rewritten from the
// iteration counter (the way actorbench's serve_cold patches its frame), so
// each request pays decode + bank inference + wire encode + memo insert.
// The gap to BenchmarkServePredict is the memo's win. Budget: ≤ 7.5 µs/op
// and ≤ 3 allocs/op — the memo entry's retained key, body and header —
// on the 2-vCPU 2.1 GHz reference host (15.0 µs and 9 allocs before bank
// inference was stacked; PERFORMANCE.md "The miss path").
func BenchmarkServePredictMiss(b *testing.B) {
	srv, req, rdr, body, w := newServeBench(b)
	const ipc = `"IPC":1.`
	body = bytes.Replace(body, []byte(`"IPC":1.1`), []byte(ipc+"000000"), 1)
	digits := body[bytes.Index(body, []byte(ipc))+len(ipc):][:6]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d, n := len(digits)-1, i; d >= 0; d, n = d-1, n/10 {
			digits[d] = '0' + byte(n%10)
		}
		rdr.Reset(body)
		w.code = 0
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("predict = %d", w.code)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkBankPredict measures the public Bank.Predict on a fast ANN bank
// over distinct rate vectors: mnemonic resolution, predictor selection, one
// stacked ensemble pass per target and the ranking — the inference share of
// a memo miss, and what actorbench reports as actor.bank.predict_us.
func BenchmarkBankPredict(b *testing.B) {
	eng, err := pubactor.New(pubactor.WithFast(), pubactor.WithRepetitions(1))
	if err != nil {
		b.Fatal(err)
	}
	bank, err := eng.Train(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rates := make([]pubactor.Rates, 256)
	for i := range rates {
		rates[i] = pubactor.Rates{"IPC": 1 + rng.Float64()}
		for _, name := range bank.Meta().EventSets[0] {
			rates[i][name] = 0.1 * rng.Float64()
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bank.Predict(ctx, rates[i%len(rates)]); err != nil {
			b.Fatal(err)
		}
	}
}
