package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fleet"
	"repro/internal/par"
)

// header opens every BENCH_*.json record: its schema and the command
// that wrote it (program base name plus arguments), so the record can
// be reproduced exactly. writeRecord fills both.
type header struct {
	Schema string   `json:"schema"`
	Argv   []string `json:"argv"`
}

func (h *header) stamp(schema string) {
	h.Schema = schema
	h.Argv = append([]string{filepath.Base(os.Args[0])}, os.Args[1:]...)
}

// record is a BENCH_*.json record: a struct that embeds header.
type record interface{ stamp(schema string) }

// writeRecord stamps rec with schema and the current command line and
// writes it as indented JSON.
func writeRecord(path, schema string, rec record) error {
	rec.stamp(schema)
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// minPair runs arms a and b alternately, runs times each (a, b, a,
// b, ...), and returns each arm's minimum wall time, so transient
// machine noise inflates neither side. An arm's error, including a
// failed side check inside it, ends the run.
func minPair(runs int, a, b func() (int64, error)) (minA, minB int64, err error) {
	arms := [2]func() (int64, error){a, b}
	var mins [2]int64
	for i := 0; i < runs; i++ {
		for k, arm := range arms {
			ns, err := arm()
			if err != nil {
				return 0, 0, err
			}
			if i == 0 || ns < mins[k] {
				mins[k] = ns
			}
		}
	}
	return mins[0], mins[1], nil
}

// sameEvery returns a side check that remembers the first value it is
// given and fails when a later run gives a different one.
func sameEvery[T comparable](what string) func(T) error {
	var ref T
	seen := false
	return func(v T) error {
		if !seen {
			ref, seen = v, true
			return nil
		}
		if v != ref {
			return fmt.Errorf("%s diverged between identical runs", what)
		}
		return nil
	}
}

// maxOverhead is the most an observer layer may cost: flight, prof
// and watch fail when their on-arm's minimum wall time is more than
// this multiple of the off-arm's.
const maxOverhead = 1.05

// overhead closes every observer-overhead record.
type overhead struct {
	// Overhead is the on-arm's minimum wall time over the off-arm's.
	Overhead float64 `json:"overhead"`
	Within5  bool    `json:"within_5pct"`
}

// gate fills o from the two arms' minimum wall times and fails past
// maxOverhead.
func (o *overhead) gate(what string, on, off int64) error {
	o.Overhead = float64(on) / float64(off)
	o.Within5 = o.Overhead <= maxOverhead
	if !o.Within5 {
		return fmt.Errorf("%s costs %.2f%% wall time, budget is %.0f%%",
			what, (o.Overhead-1)*100, (maxOverhead-1)*100)
	}
	return nil
}

// target is a design and its vector budget.
type target struct {
	name   string
	budget uint64
}

// rowsFor measures each target in turn.
func rowsFor[R any](targets []target, measure func(target) (R, error)) ([]R, error) {
	rows := make([]R, 0, len(targets))
	for _, t := range targets {
		r, err := measure(t)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.name, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// recordBackend is the simulator the record experiments' campaigns
// run on. Their committed baselines were measured on the interpreter,
// so the experiments name it and -diff keeps comparing like with like.
// On the compiled default the flight campaign runs about 20% faster
// while the span layer's cost per event stays, which alone puts spans
// past maxOverhead there (see ROADMAP item 5).
const recordBackend = "interp"

// campaignConfig is the engine configuration the record experiments
// share: I=100, Th=2, snapshot rollback, and the whole budget run.
func campaignConfig(budget uint64, seed int64) core.Config {
	return core.Config{
		Interval:              100,
		Threshold:             2,
		MaxVectors:            budget,
		Seed:                  seed,
		SimBackend:            recordBackend,
		UseSnapshots:          true,
		ContinueAfterCoverage: true,
	}
}

// campaignSpec is campaignConfig as a wire spec for workers ranks.
func campaignSpec(bench string, budget uint64, seed int64, workers int) dist.CampaignSpec {
	c := campaignConfig(budget, seed)
	return dist.CampaignSpec{
		Bench:                 bench,
		Interval:              c.Interval,
		Threshold:             c.Threshold,
		MaxVectors:            c.MaxVectors,
		Seed:                  c.Seed,
		Workers:               workers,
		SimBackend:            c.SimBackend,
		UseSnapshots:          c.UseSnapshots,
		ContinueAfterCoverage: c.ContinueAfterCoverage,
	}
}

// loopback hosts the campaigns on one fleet server over loopback HTTP
// (with the streaming health plane on when watch is set), runs Spec.Workers worker goroutines for each (mod, when set, adjusts
// every worker's config), and returns the merged reports in campaign
// order with the wall time from server start to the last merge. Named
// campaigns journal into a temporary directory, as campaigns admitted
// to a fleet with a journal directory do. inspect, when set, sees the
// server after the last merge and before shutdown.
func loopback(ccs []dist.CoordConfig, watch bool, mod func(*dist.WorkerConfig), inspect func(*fleet.Server)) ([]*par.Report, int64, error) {
	dir, err := os.MkdirTemp("", "benchtab")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	for i := range ccs {
		if ccs[i].Name != "" {
			ccs[i].JournalPath = filepath.Join(dir, ccs[i].Name+".jsonl")
		}
	}

	start := time.Now()
	srv, err := fleet.NewServer("127.0.0.1:0", fleet.Config{Watch: watch}, ccs...)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		// Every result is in hand by now; a slow drain changes none.
		_ = srv.Shutdown(ctx)
	}()

	ctx := context.Background()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		workErr error
		nworker int
	)
	for _, cc := range ccs {
		for r := 0; r < cc.Spec.Workers; r++ {
			wc := dist.WorkerConfig{
				Addr:     srv.Addr(),
				Campaign: cc.Name,
				WorkerID: fmt.Sprintf("bench-w%d", nworker),
				RankHint: r,
			}
			if mod != nil {
				mod(&wc)
			}
			nworker++
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := dist.RunWorker(ctx, wc); err != nil {
					mu.Lock()
					workErr = errors.Join(workErr, fmt.Errorf("worker %s: %w", wc.WorkerID, err))
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	if workErr != nil {
		return nil, 0, workErr
	}
	reps := make([]*par.Report, len(ccs))
	for i, cc := range ccs {
		if reps[i], err = srv.WaitCampaign(ctx, cc.Name); err != nil {
			return nil, 0, fmt.Errorf("campaign %q: %w", cc.Name, err)
		}
	}
	wall := time.Since(start).Nanoseconds()
	if inspect != nil {
		inspect(srv)
	}
	return reps, wall, nil
}
