package exp

import (
	"fmt"
	"io"

	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/metrics"
	"github.com/greenhpc/actor/internal/parallel"
	"github.com/greenhpc/actor/internal/report"
)

// Fig8Strategies are the execution strategies compared in Fig. 8, in the
// paper's panel order.
var Fig8Strategies = []string{"4 Cores", "Global Optimal", "Phase Optimal", "Prediction"}

// Fig8Row holds one benchmark's absolute results per strategy.
type Fig8Row struct {
	// TimeSec etc. map strategy display name → value.
	TimeSec, PowerW, EnergyJ, ED2 map[string]float64
	// PhaseConfigs maps phase → config chosen by the prediction strategy.
	PhaseConfigs map[string]string
}

// Fig8Result aggregates the adaptation evaluation (paper Fig. 8: normalised
// execution time, power, energy and ED² against the 4-core default).
type Fig8Result struct {
	Order []string
	Rows  map[string]*Fig8Row
}

// Fig8Throttling executes every benchmark under the four strategies. The
// prediction strategy uses the leave-one-out bank trained for that
// benchmark, pays its sampling overhead (counter rotation at maximal
// concurrency capped at 20% of iterations), and every strategy pays
// cache-warmth migration penalties when consecutive phases run on
// different placements.
//
// The (benchmark × strategy) replays are independent and fan out through
// the parallel engine. Each task's measurement machine draws noise from a
// stream forked under the task's key, so the figure is bit-identical at
// any GOMAXPROCS; all tasks share the suite's phase-response memo, so each
// distinct (phase, placement) is solved only once across the whole figure.
func (s *Suite) Fig8Throttling(loo *LOOModels) (*Fig8Result, error) {
	res := &Fig8Result{Rows: make(map[string]*Fig8Row, len(s.Benches))}
	base := s.noiseBase.Fork("fig8")
	ns := len(Fig8Strategies)
	allCores := s.SampleConfig().Name // "4" on the paper platform
	runs, err := parallel.Map(len(s.Benches)*ns, func(i int) (core.RunResult, error) {
		b, name := s.Benches[i/ns], Fig8Strategies[i%ns]
		var strat core.Strategy
		switch name {
		case "4 Cores":
			strat = &core.Static{Config: allCores}
		case "Global Optimal":
			strat = core.OracleGlobal{}
		case "Phase Optimal":
			strat = core.OraclePhase{}
		case "Prediction":
			strat = &core.Prediction{Bank: loo.Banks[b.Name]}
		default:
			return core.RunResult{}, fmt.Errorf("fig8: unknown strategy %q", name)
		}
		noisy := s.Noisy.WithNoise(base.Fork(b.Name + "/" + name))
		env := core.NewEnvWith(noisy, s.Truth, s.Power, s.Configs)
		r, err := strat.Run(b, env)
		if err != nil {
			return core.RunResult{}, fmt.Errorf("fig8 %s/%s: %w", b.Name, name, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range s.Benches {
		row := &Fig8Row{
			TimeSec: map[string]float64{},
			PowerW:  map[string]float64{},
			EnergyJ: map[string]float64{},
			ED2:     map[string]float64{},
		}
		for si, name := range Fig8Strategies {
			r := runs[bi*ns+si]
			row.TimeSec[name] = r.TimeSec
			row.PowerW[name] = r.AvgPowerW
			row.EnergyJ[name] = r.EnergyJ
			row.ED2[name] = r.ED2
			if name == "Prediction" {
				row.PhaseConfigs = r.PhaseConfigs
			}
		}
		res.Rows[b.Name] = row
		res.Order = append(res.Order, b.Name)
	}
	return res, nil
}

// Normalized returns metric[strategy]/metric["4 Cores"] for a benchmark.
func (r *Fig8Result) Normalized(bench, strategy string, metric func(*Fig8Row) map[string]float64) float64 {
	row := r.Rows[bench]
	if row == nil {
		return 0
	}
	m := metric(row)
	base := m["4 Cores"]
	if base == 0 {
		return 0
	}
	return m[strategy] / base
}

// AverageNormalized returns the arithmetic mean across benchmarks of the
// normalised metric (the paper's AVG bars).
func (r *Fig8Result) AverageNormalized(strategy string, metric func(*Fig8Row) map[string]float64) float64 {
	var vals []float64
	for _, b := range r.Order {
		vals = append(vals, r.Normalized(b, strategy, metric))
	}
	return metrics.Mean(vals)
}

// Metric accessors for Normalized/AverageNormalized.
func MetricTime(r *Fig8Row) map[string]float64   { return r.TimeSec }
func MetricPower(r *Fig8Row) map[string]float64  { return r.PowerW }
func MetricEnergy(r *Fig8Row) map[string]float64 { return r.EnergyJ }
func MetricED2(r *Fig8Row) map[string]float64    { return r.ED2 }

// Render prints all four normalised panels plus headline scalars.
func (r *Fig8Result) Render(w io.Writer) {
	panels := []struct {
		title  string
		metric func(*Fig8Row) map[string]float64
	}{
		{"normalized execution time", MetricTime},
		{"normalized power consumption", MetricPower},
		{"normalized energy consumption", MetricEnergy},
		{"normalized energy delay squared (ED2)", MetricED2},
	}
	report.Section(w, "Figure 8: adaptation strategies vs 4-core default")
	for _, panel := range panels {
		t := report.NewTable(panel.title, append([]string{"bench"}, Fig8Strategies...)...)
		for _, b := range r.Order {
			cells := []string{b}
			for _, st := range Fig8Strategies {
				cells = append(cells, fmt.Sprintf("%.3f", r.Normalized(b, st, panel.metric)))
			}
			t.AddRow(cells...)
		}
		avg := []string{"AVG"}
		for _, st := range Fig8Strategies {
			avg = append(avg, fmt.Sprintf("%.3f", r.AverageNormalized(st, panel.metric)))
		}
		t.AddRow(avg...)
		t.Render(w)
		fmt.Fprintln(w)
	}
	predTime := r.AverageNormalized("Prediction", MetricTime)
	report.KV(w, "prediction avg performance gain (paper 6.5%)", "%.1f%%", (1-predTime)*100)
	report.KV(w, "prediction avg power change (paper +1.5%)", "%+.1f%%",
		(r.AverageNormalized("Prediction", MetricPower)-1)*100)
	report.KV(w, "prediction avg energy saving (paper 5.2%)", "%.1f%%",
		(1-r.AverageNormalized("Prediction", MetricEnergy))*100)
	report.KV(w, "prediction avg ED2 saving (paper 17.2%)", "%.1f%%",
		(1-r.AverageNormalized("Prediction", MetricED2))*100)
	report.KV(w, "phase-optimal avg ED2 saving (paper 29.0%)", "%.1f%%",
		(1-r.AverageNormalized("Phase Optimal", MetricED2))*100)
	if row := r.Rows["IS"]; row != nil {
		report.KV(w, "IS prediction ED2 saving (paper 71.6%)", "%.1f%%",
			(1-r.Normalized("IS", "Prediction", MetricED2))*100)
	}
	report.KV(w, "prediction vs global optimal slowdown (paper 2.5%)", "%.1f%%",
		(r.AverageNormalized("Prediction", MetricTime)/r.AverageNormalized("Global Optimal", MetricTime)-1)*100)
	report.KV(w, "prediction vs phase optimal slowdown (paper 4.9%)", "%.1f%%",
		(r.AverageNormalized("Prediction", MetricTime)/r.AverageNormalized("Phase Optimal", MetricTime)-1)*100)
}
