package core

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/elab"
)

func benchmarkDesign(t testing.TB, name string) *elab.Design {
	t.Helper()
	bm, err := designs.Lookup(name, true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := bm.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEnginePrunesUnreachableNodes drives the engine over the bus_arb
// benchmark, whose latched grant register makes the CFG enumerate a
// grant valuation (gnt=3) the arbiter can never produce. The static
// reachability pass must prove it dead and exclude it from guidance.
func TestEnginePrunesUnreachableNodes(t *testing.T) {
	eng, err := New(benchmarkDesign(t, "bus_arb"), nil, Config{
		Interval: 40, Threshold: 2, MaxVectors: 4000, Seed: 11, UseSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrunedTargets == 0 {
		t.Fatalf("expected statically pruned CFG nodes on bus_arb: %s", rep)
	}
	if rep.PrunedSolves == 0 {
		t.Errorf("pruned nodes never suppressed a solver dispatch: %s", rep)
	}
}

// TestEnginePruningDisabled is the ablation: with DisablePruning the
// unreachable nodes stay in the target set and nothing is pruned.
func TestEnginePruningDisabled(t *testing.T) {
	eng, err := New(benchmarkDesign(t, "bus_arb"), nil, Config{
		Interval: 40, Threshold: 2, MaxVectors: 4000, Seed: 11,
		UseSnapshots: true, DisablePruning: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrunedTargets != 0 || rep.PrunedSolves != 0 {
		t.Fatalf("ablation run must not prune: %s", rep)
	}
}

// TestEnginePruningPreservesCoverage checks pruning never costs
// reachable coverage: on the deep-FSM fixture (no unreachable nodes)
// both variants cover the same edge set.
func TestEnginePruningPreservesCoverage(t *testing.T) {
	run := func(disable bool) *Report {
		eng, err := New(deepDesign(t), nil, Config{
			Interval: 50, Threshold: 2, MaxVectors: 50_000, Seed: 3,
			UseSnapshots: true, DisablePruning: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	with, without := run(false), run(true)
	if with.EdgesCovered != without.EdgesCovered || with.EdgesTotal != without.EdgesTotal {
		t.Errorf("pruning changed coverage: with=%s without=%s", with, without)
	}
}
