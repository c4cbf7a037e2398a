package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	symbfuzz "repro"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/dist"
	"repro/internal/fleet"
	"repro/internal/par"
)

// The dist experiment measures what the wire costs: the same
// 2-worker campaign runs once in-process (par orchestrator, shared
// memory) and once distributed (coordinator + workers speaking the
// /v1 HTTP protocol over loopback), both racing the global frontier
// to the coverage a single worker discovers on the budget. The two
// trajectories are identical by construction — the record isolates
// the protocol overhead (serialized publishes, remote plan cache,
// lease heartbeats) in the time-to-coverage and wall columns. The
// record is written as BENCH_dist.json.

// DistRow is one design's in-process vs distributed measurement.
type DistRow struct {
	Bench        string `json:"bench"`
	Budget       uint64 `json:"budget"`
	TargetPoints int    `json:"target_points"`

	InprocWallNS  int64 `json:"inproc_wall_ns"`
	InprocReached bool  `json:"inproc_reached"`
	DistWallNS    int64 `json:"dist_wall_ns"`
	DistReached   bool  `json:"dist_reached"`

	// WireOverhead is dist wall over in-process wall to the same
	// coverage target — the cost of crossing the loopback on every
	// interval-boundary publish and cache consultation.
	WireOverhead float64 `json:"wire_overhead"`

	// MergedEqual records that the two campaigns' merged reports agree
	// on the structural invariants (graph totals, pruning). Full
	// byte-parity only holds for fixed-budget campaigns — a
	// stop-at-target race truncates each worker at a wall-clock-
	// dependent vector count — so that contract lives in the dist
	// package tests, not here.
	MergedEqual bool `json:"merged_equal"`
}

// DistBench is the BENCH_dist.json record.
type DistBench struct {
	Schema  string    `json:"schema"`
	Workers int       `json:"workers"`
	Cores   int       `json:"cores"`
	Seed    int64     `json:"seed"`
	Note    string    `json:"note"`
	Rows    []DistRow `json:"rows"`
}

var distTargets = []struct {
	name   string
	budget uint64
}{
	{"scmi_mailbox", 3000},
	{"bus_arb", 8000},
}

func runDistExp(workers int, seed int64, outPath string, w io.Writer) error {
	if workers < 2 {
		workers = 2
	}
	bench := DistBench{
		Schema:  "symbfuzz-bench-dist/v1",
		Workers: workers,
		Cores:   runtime.NumCPU(),
		Seed:    seed,
		Note: "dist runs the full /v1 wire protocol over loopback HTTP in one OS process; " +
			"wire_overhead therefore excludes physical network latency but includes " +
			"serialization, the remote plan cache, and lease traffic",
	}
	for _, tgt := range distTargets {
		b, ok := designs.FindBenchmark(tgt.name)
		if !ok {
			return fmt.Errorf("dist: unknown benchmark %q", tgt.name)
		}
		row, err := measureDist(b, tgt.name, tgt.budget, workers, seed)
		if err != nil {
			return fmt.Errorf("dist: %s: %w", tgt.name, err)
		}
		bench.Rows = append(bench.Rows, *row)
	}

	fmt.Fprintf(w, "Distributed overhead (time to single-worker coverage, %d workers, loopback)\n", workers)
	fmt.Fprintf(w, "%-16s %8s %8s %14s %14s %10s %8s\n",
		"bench", "budget", "target", "inproc wall", "dist wall", "overhead", "parity")
	for _, r := range bench.Rows {
		parity := "ok"
		if !r.MergedEqual {
			parity = "MISMATCH"
		}
		fmt.Fprintf(w, "%-16s %8d %8d %12.2fms %12.2fms %9.2fx %8s\n",
			r.Bench, r.Budget, r.TargetPoints,
			float64(r.InprocWallNS)/1e6, float64(r.DistWallNS)/1e6,
			r.WireOverhead, parity)
	}

	out, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(out, '\n'), 0o644)
}

func measureDist(b *designs.Benchmark, benchName string, budget uint64, workers int, seed int64) (*DistRow, error) {
	cc := core.Config{
		Interval:              100,
		Threshold:             2,
		MaxVectors:            budget,
		Seed:                  seed,
		UseSnapshots:          true,
		ContinueAfterCoverage: true,
	}

	// Discovery: what does one lane reach on this budget?
	disc, err := symbfuzz.FuzzParallel(b, par.Config{Config: cc, Workers: 1})
	if err != nil {
		return nil, err
	}
	target := disc.Merged.FinalPoints

	// In-process: N workers race the shared-memory frontier.
	inproc, err := symbfuzz.FuzzParallel(b,
		par.Config{Config: cc, Workers: workers, StopAtPoints: target})
	if err != nil {
		return nil, err
	}

	// Distributed: the same campaign over the loopback wire.
	distRep, err := runLoopback(dist.CampaignSpec{
		Bench:                 benchName,
		Interval:              cc.Interval,
		Threshold:             cc.Threshold,
		MaxVectors:            cc.MaxVectors,
		Seed:                  cc.Seed,
		Workers:               workers,
		UseSnapshots:          cc.UseSnapshots,
		ContinueAfterCoverage: cc.ContinueAfterCoverage,
	}, target)
	if err != nil {
		return nil, err
	}

	row := &DistRow{
		Bench:         b.Name,
		Budget:        budget,
		TargetPoints:  target,
		InprocWallNS:  inproc.TimeToTargetNS,
		InprocReached: inproc.TimeToTargetNS > 0,
		DistWallNS:    distRep.TimeToTargetNS,
		DistReached:   distRep.TimeToTargetNS > 0,
		MergedEqual:   mergedAgree(inproc.Merged, distRep.Merged),
	}
	if row.InprocReached && row.DistReached {
		row.WireOverhead = float64(row.DistWallNS) / float64(row.InprocWallNS)
	}
	return row, nil
}

// runLoopback hosts the campaign on a one-campaign fleet and workers
// worker goroutines over loopback HTTP, and waits for the merged
// report.
func runLoopback(spec dist.CampaignSpec, stopAt int) (*par.Report, error) {
	co, err := fleet.NewServer("127.0.0.1:0", fleet.Config{}, dist.CoordConfig{
		Spec: spec, StopAtPoints: stopAt,
	})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, spec.Workers)
	for i := 0; i < spec.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dist.RunWorker(ctx, dist.WorkerConfig{
				Addr:     co.Addr(),
				WorkerID: fmt.Sprintf("bench-w%d", i),
				RankHint: i,
			})
		}(i)
	}
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			return nil, fmt.Errorf("worker %d: %w", i, werr)
		}
	}
	rep, err := co.WaitCampaign(ctx, "")
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = co.Shutdown(sctx)
	cancel()
	return rep, err
}

// mergedAgree compares the campaign-invariant merged-report fields.
// Everything trajectory-dependent (bug lists, vector counts, final
// coverage past the target) varies with where the stop-at-target race
// truncates each worker, so only the elaboration-derived structure
// participates here.
func mergedAgree(a, b *core.Report) bool {
	return a.NodesTotal == b.NodesTotal &&
		a.EdgesTotal == b.EdgesTotal &&
		a.PrunedTargets == b.PrunedTargets
}
