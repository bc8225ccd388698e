package workload

import (
	"testing"
	"testing/quick"
)

func TestGenerateValidBenchmarks(t *testing.T) {
	f := func(seed int64) bool {
		b, err := Generate("X", seed)
		if err != nil {
			return false
		}
		return b.Validate() == nil &&
			len(b.Phases) >= genMinPhases && len(b.Phases) <= genMaxPhases &&
			b.Iterations >= genMinIterations && b.Iterations <= genMaxIterations
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate("X", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate("X", 5)
	if len(a.Phases) != len(b.Phases) || a.Iterations != b.Iterations {
		t.Fatal("same seed produced different structure")
	}
	for i := range a.Phases {
		if a.Phases[i].Instructions != b.Phases[i].Instructions {
			t.Fatal("same seed produced different phases")
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate("X", 1)
	b, _ := Generate("X", 2)
	if a.Phases[0].Instructions == b.Phases[0].Instructions {
		t.Error("different seeds produced identical first phases")
	}
}

func TestGenerateFingerprints(t *testing.T) {
	b, _ := Generate("APP", 9)
	seen := map[string]bool{}
	for _, p := range b.Phases {
		if p.Fingerprint == "" || seen[p.Fingerprint] {
			t.Errorf("bad fingerprint %q", p.Fingerprint)
		}
		seen[p.Fingerprint] = true
	}
}

func TestGeneratePopulation(t *testing.T) {
	pop, err := GeneratePopulation("R", 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop) != 5 {
		t.Fatalf("population size %d", len(pop))
	}
	names := map[string]bool{}
	for _, b := range pop {
		if names[b.Name] {
			t.Errorf("duplicate name %q", b.Name)
		}
		names[b.Name] = true
	}
	// Population members differ from each other.
	if pop[0].Phases[0].Instructions == pop[1].Phases[0].Instructions {
		t.Error("population members identical")
	}
}
