// Instrumented: define a custom iterative application (not part of the NPB
// suite) as phase profiles, then let every ACTOR strategy loose on it —
// static, empirical search, oracle global/phase, and ANN prediction with a
// model trained on the NPB suite. This is the workflow a downstream user
// follows to study their own workload.
//
//	go run ./examples/instrumented
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"github.com/greenhpc/actor/internal/ann"
	"github.com/greenhpc/actor/internal/core"
	"github.com/greenhpc/actor/internal/dataset"
	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/npb"
	"github.com/greenhpc/actor/internal/power"
	"github.com/greenhpc/actor/internal/report"
	"github.com/greenhpc/actor/internal/topology"
	"github.com/greenhpc/actor/internal/workload"
)

// myApp is a made-up CFD-flavoured mini-app with one dense phase, one
// bandwidth-bound streaming phase and one reduction.
func myApp() *workload.Benchmark {
	b := &workload.Benchmark{
		Name:         "MYAPP",
		Iterations:   60,
		Idiosyncrasy: 0.03,
		Phases: []workload.PhaseProfile{
			{
				Name: "flux_kernel", Instructions: 7e8, BaseIPC: 1.7,
				MemRefsPerInstr: 0.3, LoadFraction: 0.65, L1MissRate: 0.06,
				WorkingSetBytes: 1.8 * 1024 * 1024, SharingFactor: 0.3, LocalityExp: 1,
				ColdMissRate: 0.15, MLP: 2.4, ParallelFraction: 0.995,
				SyncCycles: 4e5, BranchRate: 0.08, BranchMissRate: 0.02,
				TLBMissRate: 0.0005, ChunkGranularity: 64, PrefetchFriendly: 0.5,
			},
			{
				Name: "advect_stream", Instructions: 2.5e8, BaseIPC: 0.9,
				MemRefsPerInstr: 0.55, LoadFraction: 0.6, L1MissRate: 0.4,
				WorkingSetBytes: 3.4 * 1024 * 1024, SharingFactor: 0.05, LocalityExp: 1.1,
				ColdMissRate: 0.3, MLP: 10, ParallelFraction: 0.99,
				SyncCycles: 5e5, BranchRate: 0.05, BranchMissRate: 0.01,
				TLBMissRate: 0.002, ChunkGranularity: 64, PrefetchFriendly: 0.8,
				StoreBandwidthBoost: 0.9,
			},
			{
				Name: "norm_reduce", Instructions: 8e7, BaseIPC: 1.1,
				MemRefsPerInstr: 0.45, LoadFraction: 0.7, L1MissRate: 0.1,
				WorkingSetBytes: 1.2 * 1024 * 1024, SharingFactor: 0.15, LocalityExp: 1,
				ColdMissRate: 0.2, MLP: 3, ParallelFraction: 0.93,
				SyncCycles: 2e6, CriticalFraction: 0.02, BranchRate: 0.07,
				BranchMissRate: 0.02, TLBMissRate: 0.0005, ChunkGranularity: 64,
				PrefetchFriendly: 0.7,
			},
		},
	}
	for i := range b.Phases {
		b.Phases[i].Fingerprint = b.Name + "/" + b.Phases[i].Name
	}
	return b
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run trains the bank on the NPB suite, runs MYAPP under every strategy and
// writes the table to w.
func run(w io.Writer) error {
	truth, err := machine.New(topology.QuadCoreXeon())
	if err != nil {
		return err
	}
	noisy := truth.WithNoise(noise.New(7).Fork("machine"))
	env := core.NewEnv(noisy, truth, power.Default())

	// Train the predictor on the NPB suite — MYAPP is unseen.
	collector := dataset.NewCollector(noisy, truth)
	collector.Repetitions = 3
	suite, err := collector.CollectSuite(npb.All())
	if err != nil {
		return err
	}
	var samples []dataset.PhaseSample
	for _, name := range npb.Names() {
		samples = append(samples, suite[name]...)
	}
	cfg := ann.DefaultConfig()
	cfg.MaxEpochs = 150
	bank, err := core.TrainANNBank(samples, []int{12}, []string{"1", "2a", "2b", "3"}, 5, cfg)
	if err != nil {
		return err
	}

	app := myApp()
	if err := app.Validate(); err != nil {
		return err
	}
	strategies := []core.Strategy{
		&core.Static{Config: "4"},
		&core.Static{Config: "2b"},
		&core.Search{},
		core.OracleGlobal{},
		core.OraclePhase{},
		&core.Prediction{Bank: bank},
	}
	t := report.NewTable("MYAPP under every ACTOR strategy",
		"strategy", "time (s)", "power (W)", "energy (J)", "ED2", "configs")
	for _, st := range strategies {
		res, err := st.Run(app, env)
		if err != nil {
			return err
		}
		cfgs := ""
		for _, ph := range app.PhaseNames() {
			if cfgs != "" {
				cfgs += ","
			}
			cfgs += res.PhaseConfigs[ph]
		}
		t.AddRow(res.Strategy,
			fmt.Sprintf("%.2f", res.TimeSec),
			fmt.Sprintf("%.1f", res.AvgPowerW),
			fmt.Sprintf("%.0f", res.EnergyJ),
			fmt.Sprintf("%.0f", res.ED2),
			cfgs)
	}
	t.Render(w)
	return nil
}
