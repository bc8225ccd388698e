// Quickstart: build the simulated quad-core Xeon platform, train a small
// ANN predictor bank on part of the NPB suite, and run a benchmark the
// models never saw under ACTOR's prediction-based concurrency throttling,
// comparing against the default run-on-all-cores strategy.
//
//	go run ./examples/quickstart
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
	"github.com/greenhpc/actor/internal/topology"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run trains the bank, runs MG both ways and writes the comparison to w.
func run(w io.Writer) error {
	// 1. The platform: a quad-core Xeon QX6600 model, in pristine (oracle)
	//    and noisy (measurement) flavours, plus the wall-power model.
	truth, err := machine.New(topology.QuadCoreXeon())
	if err != nil {
		return err
	}
	noisy := truth.WithNoise(noise.New(42).Fork("machine"), 0.02, 0.08)
	env := core.NewEnv(noisy, truth, power.Default())

	// 2. Offline training: collect counter samples from a few training
	//    applications and fit ANN ensembles predicting IPC per target
	//    configuration.
	collector := dataset.NewCollector(noisy, truth)
	collector.Repetitions = 3
	var samples []dataset.PhaseSample
	for _, name := range []string{"BT", "CG", "LU", "SP"} {
		b, err := npb.ByName(name)
		if err != nil {
			return err
		}
		ss, err := collector.CollectBenchmark(b)
		if err != nil {
			return err
		}
		samples = append(samples, ss...)
	}
	cfg := ann.DefaultConfig()
	cfg.MaxEpochs = 150
	bank, err := core.TrainANNBank(samples, []int{12, 2}, []string{"1", "2a", "2b", "3"}, 5, cfg)
	if err != nil {
		return err
	}

	// 3. Online adaptation: run MG — which the models never saw — under
	//    the default 4-core strategy and under ACTOR prediction.
	mg, err := npb.ByName("MG")
	if err != nil {
		return err
	}
	base, err := (&core.Static{Config: "4"}).Run(mg, env)
	if err != nil {
		return err
	}
	adapted, err := (&core.Prediction{Bank: bank}).Run(mg, env)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "MG on all 4 cores:  %6.2f s  %6.1f W  %8.0f J  ED2 %.0f\n",
		base.TimeSec, base.AvgPowerW, base.EnergyJ, base.ED2)
	fmt.Fprintf(w, "MG under ACTOR:     %6.2f s  %6.1f W  %8.0f J  ED2 %.0f\n",
		adapted.TimeSec, adapted.AvgPowerW, adapted.EnergyJ, adapted.ED2)
	fmt.Fprintf(w, "time saved: %.1f%%   energy saved: %.1f%%   ED2 saved: %.1f%%\n",
		100*(1-adapted.TimeSec/base.TimeSec),
		100*(1-adapted.EnergyJ/base.EnergyJ),
		100*(1-adapted.ED2/base.ED2))
	fmt.Fprintln(w, "per-phase configurations chosen:")
	for _, phase := range mg.PhaseNames() {
		fmt.Fprintf(w, "  %-10s → %s\n", phase, adapted.PhaseConfigs[phase])
	}
	return nil
}
