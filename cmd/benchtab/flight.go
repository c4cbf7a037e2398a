package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/obs"
)

// The flight experiment measures what the flight recorder costs: the
// same fixed-budget bus_arb campaign runs with the full span layer
// enabled (observer + JSONL tracer draining to io.Discard) and with a
// nil observer (the engine's no-op telemetry path), interleaved by
// minPair. It fails if spans cost more than maxOverhead.

// FlightBench is the BENCH_flight.json record.
type FlightBench struct {
	header
	Bench  string `json:"bench"`
	Budget uint64 `json:"budget"`
	Runs   int    `json:"runs"`
	Cores  int    `json:"cores"`
	Seed   int64  `json:"seed"`
	Note   string `json:"note"`

	SpansWallNS   int64 `json:"spans_wall_ns"`
	NoSpansWallNS int64 `json:"no_spans_wall_ns"`
	TraceEvents   int   `json:"trace_events"`
	TraceSpans    int   `json:"trace_spans"`

	overhead
}

// busArbVectors is the fixed budget of the flight and prof campaigns.
const busArbVectors = 20_000

// runBusArb runs one fixed-budget bus_arb campaign, its configuration
// adjusted by set when set is non-nil, and returns the wall time of
// Run alone.
func runBusArb(seed int64, set func(*core.Config)) (int64, error) {
	b := designs.BusArb()
	d, err := b.Elaborate()
	if err != nil {
		return 0, err
	}
	c := campaignConfig(busArbVectors, seed)
	if set != nil {
		set(&c)
	}
	eng, err := core.New(d, b.Properties, c)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := eng.Run(); err != nil {
		return 0, err
	}
	return time.Since(start).Nanoseconds(), nil
}

func runFlight(seed int64, runs int, w io.Writer) (record, error) {
	// One counted traced run to size the trace, outside the timing arms.
	counter := &countTracer{}
	if _, err := runBusArb(seed, func(c *core.Config) { c.Obs = obs.New(obs.Options{Tracer: counter}) }); err != nil {
		return nil, err
	}
	spans, plain, err := minPair(runs,
		func() (int64, error) {
			return runBusArb(seed, func(c *core.Config) {
				c.Obs = obs.New(obs.Options{Tracer: obs.NewJSONLTracer(io.Discard)})
			})
		},
		func() (int64, error) { return runBusArb(seed, nil) })
	if err != nil {
		return nil, err
	}

	rec := &FlightBench{
		Bench:  "bus_arb",
		Budget: busArbVectors,
		Runs:   runs,
		Cores:  runtime.NumCPU(),
		Seed:   seed,
		Note: "spans arm drives the full observer + causal-span layer into a JSONL tracer " +
			"draining to io.Discard; the no-spans arm runs the engine's nil-observer no-op " +
			"path; each arm keeps its minimum wall time over interleaved runs",
		SpansWallNS:   spans,
		NoSpansWallNS: plain,
		TraceEvents:   counter.events,
		TraceSpans:    counter.spans,
	}
	gateErr := rec.gate("span layer", spans, plain)

	fmt.Fprintf(w, "Flight-recorder overhead (bus_arb, %d vectors, min of %d runs per arm)\n",
		busArbVectors, runs)
	fmt.Fprintf(w, "  spans on:  %10.2fms  (%d events, %d spans)\n",
		float64(rec.SpansWallNS)/1e6, rec.TraceEvents, rec.TraceSpans)
	fmt.Fprintf(w, "  spans off: %10.2fms\n", float64(rec.NoSpansWallNS)/1e6)
	fmt.Fprintf(w, "  overhead:  %10.4fx\n", rec.Overhead)
	return rec, gateErr
}

// countTracer tallies events and spans without formatting them.
type countTracer struct {
	events int
	spans  int
}

func (c *countTracer) Emit(ev *obs.Event) {
	c.events++
	if ev.Type == obs.EvSpan {
		c.spans++
	}
}

func (c *countTracer) Close() error { return nil }
