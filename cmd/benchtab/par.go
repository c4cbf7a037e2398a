package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	symbfuzz "repro"
	"repro/internal/designs"
	"repro/internal/par"
)

// The par experiment measures time-to-coverage scaling of the parallel
// orchestrator. For each target design it runs three campaigns:
//
//  1. Discovery: a single worker burns the full vector budget and the
//     coverage it ends with becomes the target C.
//  2. Baseline: a single worker with the same seed re-runs with
//     StopAtPoints=C, timing how long one lane takes to reach C.
//  3. Parallel: N workers (same base seed, derived per-worker seeds)
//     run with StopAtPoints=C, timing how long the merged frontier
//     takes to reach the same coverage.
//
// Wall speedup on this machine is bounded by the available cores —
// workers are CPU-bound simulation lanes. The record therefore also
// carries the scheduling-independent measure (total vectors to target,
// which a k-core machine divides across lanes) and the wall ratio
// projected for a machine with at least `workers` cores, plus each
// parallel run's set-up time (elaborate, one model build, N engine
// constructions).

// ParRow is one design's scaling measurement.
type ParRow struct {
	Bench        string `json:"bench"`
	Budget       uint64 `json:"budget"`
	TargetPoints int    `json:"target_points"`

	SingleWallNS int64  `json:"single_wall_ns"`
	SingleVec    uint64 `json:"single_vectors_to_target"`
	ParWallNS    int64  `json:"par_wall_ns"`
	ParVec       uint64 `json:"par_vectors_to_target"`
	ParReached   bool   `json:"par_reached"`

	// WallSpeedup is single wall over parallel wall on this machine.
	WallSpeedup float64 `json:"wall_speedup"`
	// VectorEfficiency is single vectors over summed parallel vectors
	// to the same target — 1.0 means seed diversity fully pays for the
	// split, i.e. wall scales with cores.
	VectorEfficiency float64 `json:"vector_efficiency"`
	// ProjectedWallRatio is par_wall/(workers*single_wall): the
	// expected parallel:single wall ratio on a machine with >= workers
	// cores, where the lanes actually run concurrently.
	ProjectedWallRatio float64 `json:"projected_wall_ratio"`

	// ParSetupNS is the N-worker run's set-up time: elaborate, prepare
	// the shared model and build the N engines, measured as the whole
	// run's wall time minus the campaign's WallNS.
	ParSetupNS int64 `json:"par_setup_ns"`
}

// ParBench is the BENCH_par.json record.
type ParBench struct {
	header
	Workers int      `json:"workers"`
	Cores   int      `json:"cores"`
	Seed    int64    `json:"seed"`
	Note    string   `json:"note"`
	Rows    []ParRow `json:"rows"`
}

// parTargets maps the experiment's design names to their discovery
// budgets: the SoC is the paper's headline target, the bus arbiter the
// small-design control. Budgets are chosen so the discovery run ends on
// a coverage plateau — a target the union frontier reaches by seed
// diversity rather than by replaying one lane's deepest solver chain.
var parTargets = []target{
	{"opentitan_mini", 7000},
	{"bus_arb", 20000},
}

const parWorkers = 4

func runPar(seed int64, _ int, w io.Writer) (record, error) {
	rows, err := rowsFor(parTargets, func(t target) (ParRow, error) { return measurePar(t, seed) })
	if err != nil {
		return nil, err
	}
	rec := &ParBench{
		Workers: parWorkers,
		Cores:   runtime.NumCPU(),
		Seed:    seed,
		Note: "wall_speedup is measured on this machine and bounded by cores; " +
			"projected_wall_ratio assumes >= workers cores (lanes are CPU-bound and independent)",
		Rows: rows,
	}

	fmt.Fprintf(w, "Parallel scaling (time to single-worker coverage, %d workers, %d cores)\n",
		parWorkers, rec.Cores)
	fmt.Fprintf(w, "%-16s %8s %8s %12s %12s %8s %8s %10s %12s\n",
		"bench", "budget", "target", "1w wall", fmt.Sprintf("%dw wall", parWorkers),
		"speedup", "vec-eff", "proj-ratio", fmt.Sprintf("%dw setup", parWorkers))
	for _, r := range rec.Rows {
		status := fmt.Sprintf("%.2fx", r.WallSpeedup)
		if !r.ParReached {
			status = "miss"
		}
		fmt.Fprintf(w, "%-16s %8d %8d %10.2fms %10.2fms %8s %8.2f %10.2f %10.2fms\n",
			r.Bench, r.Budget, r.TargetPoints,
			float64(r.SingleWallNS)/1e6, float64(r.ParWallNS)/1e6,
			status, r.VectorEfficiency, r.ProjectedWallRatio, float64(r.ParSetupNS)/1e6)
	}
	return rec, nil
}

func measurePar(t target, seed int64) (ParRow, error) {
	b, err := designs.Lookup(t.name, true)
	if err != nil {
		return ParRow{}, err
	}
	cfg := func(nworkers, stopAt int) par.Config {
		return par.Config{Config: campaignConfig(t.budget, seed), Workers: nworkers, StopAtPoints: stopAt}
	}

	// run is one whole campaign as the CLI runs it: elaborate, prepare
	// the model once, build the engines and run them. setupNS is its
	// wall time outside the campaign's own WallNS.
	run := func(c par.Config) (*par.Report, int64, error) {
		start := time.Now()
		r, err := symbfuzz.FuzzParallel(b, c)
		if err != nil {
			return nil, 0, err
		}
		return r, int64(time.Since(start)) - r.WallNS, nil
	}

	// Discovery: what does one lane reach on this budget?
	disc, _, err := run(cfg(1, 0))
	if err != nil {
		return ParRow{}, err
	}
	target := disc.Merged.FinalPoints

	// Baseline: time for the same lane to get there.
	single, _, err := run(cfg(1, target))
	if err != nil {
		return ParRow{}, err
	}

	// Parallel: N lanes race the merged frontier to the same target.
	parallel, setupNS, err := run(cfg(parWorkers, target))
	if err != nil {
		return ParRow{}, err
	}

	row := ParRow{
		Bench:        b.Name,
		Budget:       t.budget,
		TargetPoints: target,
		SingleWallNS: single.TimeToTargetNS,
		SingleVec:    vectorsToTarget(single, target),
		ParWallNS:    parallel.TimeToTargetNS,
		ParVec:       vectorsToTarget(parallel, target),
		ParReached:   parallel.TimeToTargetNS > 0,
		ParSetupNS:   setupNS,
	}
	if row.ParReached && row.ParWallNS > 0 && row.SingleWallNS > 0 {
		row.WallSpeedup = float64(row.SingleWallNS) / float64(row.ParWallNS)
		row.ProjectedWallRatio = float64(row.ParWallNS) /
			(float64(parWorkers) * float64(row.SingleWallNS))
	}
	if row.ParVec > 0 {
		row.VectorEfficiency = float64(row.SingleVec) / float64(row.ParVec)
	}
	return row, nil
}

// vectorsToTarget reads the campaign curve for the summed vector count
// at which the global frontier first reached the target.
func vectorsToTarget(r *par.Report, target int) uint64 {
	for _, p := range r.Curve {
		if p.Points >= target {
			return p.Vectors
		}
	}
	return r.Merged.Vectors
}
