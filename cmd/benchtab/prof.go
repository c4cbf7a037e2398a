package main

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/prof"
)

// The prof experiment measures what cost profiling costs: the same
// fixed-budget bus_arb campaign runs with a Profiler attached (eval
// counting, sampled eval timing, per-target solver ledgers) and with
// the nil-profiler no-op path, interleaved by minPair. As a side check
// the profiled runs' canonical ledgers must be byte-identical — the
// determinism contract under the load the benchmark itself generates.
// It fails if profiling costs more than maxOverhead.

// ProfBench is the BENCH_prof.json record.
type ProfBench struct {
	header
	Bench  string `json:"bench"`
	Budget uint64 `json:"budget"`
	Runs   int    `json:"runs"`
	Cores  int    `json:"cores"`
	Seed   int64  `json:"seed"`
	Note   string `json:"note"`

	ProfWallNS   int64 `json:"prof_wall_ns"`
	NoProfWallNS int64 `json:"no_prof_wall_ns"`

	SimEvals         uint64 `json:"sim_evals"`
	SolverDispatches int64  `json:"solver_dispatches"`
	LedgerBytes      int    `json:"ledger_bytes"`

	overhead
}

func runProf(seed int64, runs int, w io.Writer) (record, error) {
	rec := &ProfBench{
		Bench:  "bus_arb",
		Budget: busArbVectors,
		Runs:   runs,
		Cores:  runtime.NumCPU(),
		Seed:   seed,
		Note: "prof arm counts every sim eval, samples eval wall time, and keeps per-target " +
			"solver ledgers; the no-prof arm runs the engine's nil-profiler no-op path; each arm " +
			"keeps its minimum wall time over interleaved runs, and the profiled runs' canonical " +
			"ledgers are asserted byte-identical",
	}
	sameLedger := sameEvery[string]("canonical ledger")
	profiled := func() (int64, error) {
		p := prof.New(prof.Options{})
		ns, err := runBusArb(seed, func(c *core.Config) { c.Prof = p })
		if err != nil {
			return 0, err
		}
		d := prof.NewDump("bus_arb", seed, p.Ledgers())
		canon, err := d.Canonical().MarshalIndent()
		if err != nil {
			return 0, err
		}
		full, err := d.MarshalIndent()
		if err != nil {
			return 0, err
		}
		rec.SimEvals, rec.SolverDispatches, rec.LedgerBytes = d.Totals.Evals, d.Totals.Dispatches, len(full)
		return ns, sameLedger(string(canon))
	}
	on, off, err := minPair(runs, profiled, func() (int64, error) { return runBusArb(seed, nil) })
	if err != nil {
		return nil, err
	}
	rec.ProfWallNS, rec.NoProfWallNS = on, off
	gateErr := rec.gate("profiling", on, off)

	fmt.Fprintf(w, "Cost-profiler overhead (bus_arb, %d vectors, min of %d runs per arm)\n",
		busArbVectors, runs)
	fmt.Fprintf(w, "  prof on:  %10.2fms  (%d sim evals, %d dispatches, %d-byte ledger)\n",
		float64(rec.ProfWallNS)/1e6, rec.SimEvals, rec.SolverDispatches, rec.LedgerBytes)
	fmt.Fprintf(w, "  prof off: %10.2fms\n", float64(rec.NoProfWallNS)/1e6)
	fmt.Fprintf(w, "  overhead: %10.4fx\n", rec.Overhead)
	return rec, gateErr
}
