package core

import (
	"fmt"
	"testing"

	"repro/internal/cov"
)

// TestUncoveredCountParity pins the guidance count to the edge list it
// replaces: on an opentitan_mini campaign at I=40/Th=2 with pruning
// on, at every interval boundary where coverage stalled, the engine's
// per-node count of targetable uncovered out-edges equals
// len(uncoveredFrom(gi, n, false)) for every node of every cluster.
// The sharded run covers an undrained shard, whose count must leave
// out the edges other workers own. opentitan_mini has no statically
// dead nodes, so bus_arb's pruned grant valuation covers the
// pruned-edge correction.
func TestUncoveredCountParity(t *testing.T) {
	for _, tc := range []struct {
		bench  string
		shard  ShardSpec
		pruned bool
	}{
		{"opentitan_mini", ShardSpec{}, false},
		{"opentitan_mini", ShardSpec{Rank: 1, Workers: 2}, false},
		{"bus_arb", ShardSpec{}, true},
	} {
		shard := tc.shard
		t.Run(fmt.Sprintf("%s/workers=%d", tc.bench, shard.Workers), func(t *testing.T) {
			d := benchmarkDesign(t, tc.bench)
			var e *Engine
			last, checks, undrained := -1, 0, 0
			c := Config{
				Interval: 40, Threshold: 2, MaxVectors: 8000, Seed: 3,
				SimBackend: "compiled", UseSnapshots: true, Shard: shard,
				ContinueAfterCoverage: true,
			}
			c.Sync = func(cv *cov.CFGCov, _ *Report) bool {
				points := cv.Points()
				stalled := points <= last
				last = max(last, points)
				if !stalled {
					return false
				}
				checks++
				if e.cfgc.Shard.Active() && !e.shardAll {
					undrained++
				}
				for gi, g := range e.part.Graphs {
					for n := range g.Nodes {
						if got, want := e.uncoveredCount(gi, n), len(e.uncoveredFrom(gi, n, false)); got != want {
							t.Fatalf("check %d: cluster %d node %d: count %d, uncoveredFrom lists %d", checks, gi, n, got, want)
						}
					}
				}
				return false
			}
			var err error
			if e, err = New(d, nil, c); err != nil {
				t.Fatal(err)
			}
			if tc.pruned && e.report.PrunedTargets == 0 {
				t.Fatal("pruning marked no targets; the pruned-edge correction is untested")
			}
			rep, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if checks == 0 || rep.SymbolicInvocations == 0 {
				t.Fatalf("no stagnation to check (%d checks): %s", checks, rep)
			}
			if shard.Active() && undrained == 0 {
				t.Fatal("no check ran while the shard was undrained")
			}
		})
	}
}
