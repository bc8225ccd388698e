package main

// This file is the benchmark's contract in code: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repo root repeats it for the driver, and
// smoke_test.go fails when the two drift apart. ../README.md says what one op
// of each workload is, how each metric is measured, and which end-to-end
// metric each per-layer metric is predicted to move.

type workloadSpec struct {
	Name string
	Why  string // one line, copied to BENCHMARK.json
}

var workloads = []workloadSpec{
	{
		Name: "serve_hot",
		Why:  "Zipf-popular predict bodies from a 64-body population: >=99.9% memo hits, so http and the memo read path do the work and bank inference does none",
	},
	{
		Name: "serve_cold",
		Why:  "every predict body is a distinct rate vector: every request misses, runs Bank.Predict, emits a response and evicts from the bounded memo",
	},
	{
		Name: "serve_mixed",
		Why:  "production mix with recalibration on: 70% hot + 10% cold predict, 15% sweep, 5% re-delivered eval shards, a retrain trigger every 100k ops swapping banks mid-run",
	},
	{
		Name: "train_loo",
		Why:  "the paper's leave-one-out training at full fidelity: dataset collection, core/ann training on the simd kernels and the parallel fan-out do the work, serving does none",
	},
	{
		Name: "sweep_hetero",
		Why:  "hetero study on four 64-128-core big/little machines: machine.RunPhaseSweep, topology enumeration and the simd lane kernels, with no training and no HTTP",
	},
	{
		Name: "fleet_sched",
		Why:  "a cold actorfleet run: 10 000 arriving jobs placed on 1000 machines by the incremental scorer, so the fleet treap, scorer and score memo do the work",
	},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// Every workload reports every end-to-end metric, so none may be one that
// only some workloads have (model_err_pct is per-layer for that reason) or
// one that is normally zero (failures are the result line's failed/attempted).
//
// Every bound is the widest the driver's contract allows. The 2-vCPU VM class
// this runs on drifts by 15-25 % over tens of minutes with the binary
// unchanged (README, "Spread"), and a bound the host's own drift exceeds
// rejects innocent changes.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "op_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// A workload's traced run reports every per-layer metric; one it does not
// measure reads 0, which is itself the bypass prediction: that workload does
// not enter that layer.
var perLayer = []metricSpec{
	{Name: "loadgen.client_self_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.sleep20us_overshoot_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.openloop_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.rtt_p999_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.rtt_samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.p99_window_samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.attribution_gap_share", Unit: "ratio", Better: "lower"},
	{Name: "http.self_us", Unit: "us", Better: "lower"},
	{Name: "http.share", Unit: "ratio", Better: "lower"},
	{Name: "actor.server.predict_handler_p50_us", Unit: "us", Better: "lower"},
	{Name: "actor.server.predict_handler_p99_us", Unit: "us", Better: "lower"},
	{Name: "actor.server.sweep_handler_p50_us", Unit: "us", Better: "lower"},
	{Name: "actor.server.eval_handler_p50_us", Unit: "us", Better: "lower"},
	{Name: "actor.server.predict_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "actor.server.sweep_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "actor.server.eval_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "actor.server.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "actor.server.allocs_per_op", Unit: "1/op", Better: "lower"},
	{Name: "actor.server.handler_allocs_per_op", Unit: "1/op", Better: "lower"},
	{Name: "actor.server.bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "actor.bank.predict_us", Unit: "us", Better: "lower"},
	{Name: "actor.bank.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "actor.bank.train_ms", Unit: "ms", Better: "lower"},
	{Name: "actor.predmemo.repeat_share", Unit: "ratio", Better: "higher"},
	{Name: "wire.scan_us", Unit: "us", Better: "lower"},
	{Name: "wire.emit_us", Unit: "us", Better: "lower"},
	{Name: "recal.observe_us", Unit: "us", Better: "lower"},
	{Name: "recal.observe_contended_us", Unit: "us", Better: "lower"},
	{Name: "recal.trigger_ms", Unit: "ms", Better: "lower"},
	{Name: "recal.promotions", Unit: "count", Better: "higher"},
	{Name: "exp.model_err_pct", Unit: "%", Better: "lower"},
	{Name: "dataset.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.samples", Unit: "count", Better: "higher"},
	{Name: "core.train_bank_ms", Unit: "ms", Better: "lower"},
	{Name: "core.train_all_ms", Unit: "ms", Better: "lower"},
	{Name: "ann.train_ensemble_ms", Unit: "ms", Better: "lower"},
	{Name: "ann.forward_ns", Unit: "ns", Better: "lower"},
	{Name: "parallel.speedup", Unit: "ratio", Better: "higher"},
	{Name: "topology.enumerate_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.placements", Unit: "count", Better: "lower"},
	{Name: "machine.new_ms", Unit: "ms", Better: "lower"},
	{Name: "machine.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "machine.sweep_share", Unit: "ratio", Better: "lower"},
	{Name: "machine.sweep_us_per_placement", Unit: "us", Better: "lower"},
	{Name: "machine.memo_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "fleet.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.genjobs_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.schedule_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.schedule_share", Unit: "ratio", Better: "lower"},
	{Name: "fleet.decisions_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fleet.scored_per_job", Unit: "count", Better: "lower"},
	{Name: "fleet.allocs_per_job", Unit: "1/op", Better: "lower"},
	{Name: "fleet.ed2_vs_binpack", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number, in the result line's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills specs' values from got; a metric the workload did not
// measure reads 0. A value under a name the spec does not have is a bug in
// this program.
func report(specs []metricSpec, got map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		out[m.Name] = metricValue{Value: got[m.Name], Unit: m.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			panic("actorbench: metric " + name + " is not in the spec")
		}
	}
	return out
}
