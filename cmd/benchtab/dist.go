package main

import (
	"fmt"
	"io"
	"runtime"

	symbfuzz "repro"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/dist"
	"repro/internal/par"
)

// The dist experiment measures what the wire costs: the same
// 2-worker campaign runs once in-process (par orchestrator, shared
// memory) and once distributed (a loopback fleet and workers speaking
// the /v1 HTTP protocol), both racing the global frontier to the
// coverage a single worker discovers on the budget. The two
// trajectories are identical by construction — the record isolates
// the protocol overhead (serialized publishes, remote plan cache,
// lease heartbeats) in the time-to-coverage and wall columns.

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
	// dependent vector count — so that contract lives in the fleet
	// package tests, not here.
	MergedEqual bool `json:"merged_equal"`
}

// DistBench is the BENCH_dist.json record.
type DistBench struct {
	header
	Workers int       `json:"workers"`
	Cores   int       `json:"cores"`
	Seed    int64     `json:"seed"`
	Note    string    `json:"note"`
	Rows    []DistRow `json:"rows"`
}

// wireTargets are the dist and fleet experiments' designs and budgets.
var wireTargets = []target{
	{"scmi_mailbox", 3000},
	{"bus_arb", 8000},
}

const distWorkers = 2

func runDist(seed int64, _ int, w io.Writer) (record, error) {
	rows, err := rowsFor(wireTargets, func(t target) (DistRow, error) { return measureDist(t, seed) })
	if err != nil {
		return nil, err
	}
	rec := &DistBench{
		Workers: distWorkers,
		Cores:   runtime.NumCPU(),
		Seed:    seed,
		Note: "dist runs the full /v1 wire protocol over loopback HTTP in one OS process; " +
			"wire_overhead therefore excludes physical network latency but includes " +
			"serialization, the remote plan cache, and lease traffic",
		Rows: rows,
	}

	fmt.Fprintf(w, "Distributed overhead (time to single-worker coverage, %d workers, loopback)\n", distWorkers)
	fmt.Fprintf(w, "%-16s %8s %8s %14s %14s %10s %8s\n",
		"bench", "budget", "target", "inproc wall", "dist wall", "overhead", "parity")
	for _, r := range rec.Rows {
		parity := "ok"
		if !r.MergedEqual {
			parity = "MISMATCH"
		}
		fmt.Fprintf(w, "%-16s %8d %8d %12.2fms %12.2fms %9.2fx %8s\n",
			r.Bench, r.Budget, r.TargetPoints,
			float64(r.InprocWallNS)/1e6, float64(r.DistWallNS)/1e6,
			r.WireOverhead, parity)
	}
	return rec, nil
}

func measureDist(t target, seed int64) (DistRow, error) {
	b, err := designs.Lookup(t.name, true)
	if err != nil {
		return DistRow{}, err
	}
	cc := campaignConfig(t.budget, seed)

	// Discovery: what does one lane reach on this budget?
	disc, err := symbfuzz.FuzzParallel(b, par.Config{Config: cc, Workers: 1})
	if err != nil {
		return DistRow{}, err
	}
	target := disc.Merged.FinalPoints

	// In-process: N workers race the shared-memory frontier.
	inproc, err := symbfuzz.FuzzParallel(b,
		par.Config{Config: cc, Workers: distWorkers, StopAtPoints: target})
	if err != nil {
		return DistRow{}, err
	}

	// Distributed: the same campaign (the same fixed design) over the
	// loopback wire.
	spec := campaignSpec(t.name, t.budget, seed, distWorkers)
	spec.Fixed = true
	reps, _, err := loopback([]dist.CoordConfig{{Spec: spec, StopAtPoints: target}}, false, nil, nil)
	if err != nil {
		return DistRow{}, err
	}
	distRep := reps[0]

	row := DistRow{
		Bench:         b.Name,
		Budget:        t.budget,
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
