package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"

	"repro/internal/dist"
	"repro/internal/fleet"
)

// The watch experiment measures what the streaming health plane costs:
// the same fixed-budget 2-worker fleet campaign runs with the watch
// plane enabled (publish/solve hooks feeding the health engine, the
// periodic sweep, alert journaling, the subscription bus) and with it
// disabled (the nil-hook path the zero-alloc test pins), interleaved
// by minPair. As a side check every run's merged coverage must be
// equal — the watch plane is an observer, never a participant. It
// fails if watching costs more than maxOverhead.

// WatchBench is the BENCH_watch.json record.
type WatchBench struct {
	header
	Bench   string `json:"bench"`
	Budget  uint64 `json:"budget"`
	Workers int    `json:"workers"`
	Runs    int    `json:"runs"`
	Cores   int    `json:"cores"`
	Seed    int64  `json:"seed"`
	Note    string `json:"note"`

	WatchWallNS   int64 `json:"watch_wall_ns"`
	NoWatchWallNS int64 `json:"no_watch_wall_ns"`

	// AlertsJournaled counts the alerts the watched arm raised (the
	// plane must actually do its work to be worth timing).
	AlertsJournaled int  `json:"alerts_journaled"`
	MergedEqual     bool `json:"merged_equal"`

	overhead
}

// watchBudget stretches well past scmi_mailbox's coverage saturation:
// the run must be long enough that per-run fixed costs (server
// startup, worker join) amortize out of the overhead ratio.
const (
	watchBudget  = 12000
	watchWorkers = 2
)

func runWatch(seed int64, runs int, w io.Writer) (record, error) {
	spec := campaignSpec("scmi_mailbox", watchBudget, seed, watchWorkers)
	spec.Interval = 50
	rec := &WatchBench{
		Bench:   spec.Bench,
		Budget:  watchBudget,
		Workers: watchWorkers,
		Runs:    runs,
		Cores:   runtime.NumCPU(),
		Seed:    seed,
		Note: "watch arm hosts the campaign with the streaming health plane on (hooks, sweep, " +
			"alert journal, bus); the no-watch arm runs the nil-hook path; each arm keeps its " +
			"minimum wall time over interleaved runs, and both arms' merged coverage is asserted equal",
	}
	type merged struct {
		vectors uint64
		points  int
	}
	// A divergence is recorded (merged_equal false) and fails the run
	// after the record is written, as the overhead gate does.
	sameMerged := sameEvery[merged]("merged coverage")
	var mergeErr error
	arm := func(watched bool) func() (int64, error) {
		var inspect func(*fleet.Server)
		if watched {
			inspect = rec.countAlerts
		}
		return func() (int64, error) {
			reps, wall, err := loopback([]dist.CoordConfig{{Spec: spec, Name: "watchbench"}},
				watched, nil, inspect)
			if err != nil {
				return 0, fmt.Errorf("watch=%v: %w", watched, err)
			}
			if err := sameMerged(merged{reps[0].Merged.Vectors, reps[0].Merged.FinalPoints}); err != nil && mergeErr == nil {
				mergeErr = err
			}
			return wall, nil
		}
	}
	on, off, err := minPair(runs, arm(true), arm(false))
	if err != nil {
		return nil, err
	}
	rec.WatchWallNS, rec.NoWatchWallNS, rec.MergedEqual = on, off, mergeErr == nil
	gateErr := errors.Join(mergeErr, rec.gate("watching", on, off))

	fmt.Fprintf(w, "Watch-plane overhead (%s, %d vectors, %d workers, min of %d runs per arm)\n",
		spec.Bench, watchBudget, watchWorkers, runs)
	fmt.Fprintf(w, "  watch on:  %10.2fms  (%d alerts journaled)\n",
		float64(rec.WatchWallNS)/1e6, rec.AlertsJournaled)
	fmt.Fprintf(w, "  watch off: %10.2fms\n", float64(rec.NoWatchWallNS)/1e6)
	fmt.Fprintf(w, "  overhead:  %10.4fx\n", rec.Overhead)
	if !rec.MergedEqual {
		fmt.Fprintln(w, "  WARNING: merged coverage diverged between arms")
	}
	return rec, gateErr
}

// countAlerts reads the alerts the watch plane raised from its
// snapshot endpoint.
func (rec *WatchBench) countAlerts(srv *fleet.Server) {
	resp, err := http.Get("http://" + srv.Addr() + "/v1/watch/snapshot")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var snap fleet.WatchSnapshot
	if json.NewDecoder(resp.Body).Decode(&snap) == nil {
		rec.AlertsJournaled = 0
		for _, h := range snap.Campaigns {
			rec.AlertsJournaled += h.AlertsTotal
		}
	}
}
