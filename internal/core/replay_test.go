package core

import (
	"strings"
	"testing"

	"github.com/greenhpc/actor/internal/machine"
	"github.com/greenhpc/actor/internal/noise"
	"github.com/greenhpc/actor/internal/npb"
	"github.com/greenhpc/actor/internal/power"
	"github.com/greenhpc/actor/internal/topology"
)

// TestExecuteStrategiesOnHeteroTopology runs the full strategy engine on a
// heterogeneous machine: static, search and oracles over the enumerated
// placement space, confirming the strategy engine needs nothing quad-core.
func TestExecuteStrategiesOnHeteroTopology(t *testing.T) {
	topo, err := topology.ParseDesc("2x2+2x2:little")
	if err != nil {
		t.Fatal(err)
	}
	truth, err := machine.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	truth = truth.WithMemo()
	noisy := truth.WithNoise(noise.New(7))
	cfgs := topology.EnumeratePlacements(topo)
	env := NewEnvWith(noisy, truth, power.Default(), cfgs)
	b, _ := npb.ByName("CG")

	static := &Static{Config: cfgs[len(cfgs)-1].Name}
	rs, err := static.Run(b, env)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := OraclePhase{}.Run(b, env)
	if err != nil {
		t.Fatal(err)
	}
	if ro.TimeSec > rs.TimeSec {
		t.Errorf("phase oracle (%.2fs) slower than all-cores static (%.2fs) on hetero machine", ro.TimeSec, rs.TimeSec)
	}
	rsearch, err := (&Search{}).Run(b, env)
	if err != nil {
		t.Fatal(err)
	}
	if rsearch.SampleRounds == 0 {
		t.Error("search probed nothing on the hetero config space")
	}
}

// TestEnvValidateRejectsMismatchedTopology is the satellite validation fix:
// the paper's quad-core configs on a smaller machine must fail with a
// descriptive error instead of panicking deep in the solve.
func TestEnvValidateRejectsMismatchedTopology(t *testing.T) {
	topo, err := topology.ParseDesc("1x2")
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(m, m, power.Default()) // paper configs on a 2-core machine
	err = env.Validate()
	if err == nil {
		t.Fatal("Env.Validate accepted paper configs on a 2-core machine")
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("error not descriptive: %v", err)
	}
	b, _ := npb.ByName("CG")
	if _, err := (&Static{Config: "4"}).Run(b, env); err == nil {
		t.Error("strategy ran with a mismatched config space")
	}
}
