package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/designs"
	"repro/internal/dist"
	"repro/internal/fleet"
	"repro/internal/par"
	"repro/internal/prof"
)

// The fleet experiment measures what the v4 batched wire saves and
// what a shared coordinator sustains. Arm one runs the same
// fixed-budget 2-worker campaign twice over loopback — once forced
// onto the v3 synchronous full-snapshot publish path (SyncPublish),
// once on the default delta-batched path — and compares the publish
// bytes the coordinator ingested. Both arms run the identical
// deterministic trajectory (same spec, same seeds, full budget), so
// the byte ratio isolates the encoding: full cumulative snapshots
// every interval vs deduplicated deltas flushed in batches, with
// empty deltas never sent at all. Arm two multiplexes several named
// campaigns on one fleet server and records the aggregate vector
// throughput across all ranks. The record is written as
// BENCH_fleet.json.

// FleetRow is one design's sync-publish vs delta-batch wire
// measurement.
type FleetRow struct {
	Bench   string `json:"bench"`
	Budget  uint64 `json:"budget"`
	Workers int    `json:"workers"`

	// SyncBytes / SyncCalls tally the /v1/publish request payloads of
	// the ablation arm; BatchBytes / BatchCalls tally the /v1/batch
	// request payloads of the default arm (its residual /v1/publish
	// traffic — the final full-coverage report each rank ships at
	// detach — is counted in BatchBytes too, so the ratio is honest
	// about everything the batched worker sends on the publish plane).
	SyncCalls  int64 `json:"sync_calls"`
	SyncBytes  int64 `json:"sync_bytes"`
	BatchCalls int64 `json:"batch_calls"`
	BatchBytes int64 `json:"batch_bytes"`

	// PublishReduction is SyncBytes over BatchBytes — how many times
	// smaller the delta-batched publish plane is for the same
	// campaign.
	PublishReduction float64 `json:"publish_reduction"`

	// MergedEqual records that both arms produced the same merged
	// coverage and vector totals — full-budget campaigns are
	// deterministic, so anything less is a wire bug.
	MergedEqual bool `json:"merged_equal"`
}

// FleetBench is the BENCH_fleet.json record.
type FleetBench struct {
	Schema string `json:"schema"`
	Cores  int    `json:"cores"`
	Seed   int64  `json:"seed"`
	Note   string `json:"note"`

	Rows []FleetRow `json:"rows"`

	// The multi-campaign arm: Campaigns concurrent named campaigns of
	// FleetWorkers ranks each on one fleet server, total vectors over
	// wall time.
	FleetCampaigns     int     `json:"fleet_campaigns"`
	FleetWorkers       int     `json:"fleet_workers_per_campaign"`
	FleetTotalVectors  uint64  `json:"fleet_total_vectors"`
	FleetWallNS        int64   `json:"fleet_wall_ns"`
	FleetVectorsPerSec float64 `json:"fleet_vectors_per_sec"`
}

var fleetTargets = []struct {
	name   string
	budget uint64
}{
	{"scmi_mailbox", 3000},
	{"bus_arb", 8000},
}

func runFleetExp(seed int64, outPath string, w io.Writer) error {
	const workers = 2
	bench := FleetBench{
		Schema: "symbfuzz-bench-fleet/v1",
		Cores:  runtime.NumCPU(),
		Seed:   seed,
		Note: "publish_reduction compares /v1/publish full-snapshot bytes (SyncPublish ablation) " +
			"against /v1/batch delta bytes for the identical fixed-budget campaign; " +
			"fleet_vectors_per_sec is aggregate throughput of concurrent campaigns multiplexed " +
			"on one fleet coordinator over loopback",
	}

	for _, tgt := range fleetTargets {
		if _, ok := designs.FindBenchmark(tgt.name); !ok {
			return fmt.Errorf("fleet: unknown benchmark %q", tgt.name)
		}
		row, err := measureWire(tgt.name, tgt.budget, workers, seed)
		if err != nil {
			return fmt.Errorf("fleet: %s: %w", tgt.name, err)
		}
		bench.Rows = append(bench.Rows, *row)
	}

	if err := measureFleetAggregate(&bench, seed); err != nil {
		return fmt.Errorf("fleet: aggregate: %w", err)
	}

	fmt.Fprintf(w, "Publish wire overhead (sync full snapshots vs delta batches, %d workers, full budget)\n", workers)
	fmt.Fprintf(w, "%-16s %8s %10s %12s %10s %12s %10s %8s\n",
		"bench", "budget", "sync rpcs", "sync bytes", "batch rpcs", "batch bytes", "reduction", "parity")
	for _, r := range bench.Rows {
		parity := "ok"
		if !r.MergedEqual {
			parity = "MISMATCH"
		}
		fmt.Fprintf(w, "%-16s %8d %10d %12d %10d %12d %9.2fx %8s\n",
			r.Bench, r.Budget, r.SyncCalls, r.SyncBytes, r.BatchCalls, r.BatchBytes,
			r.PublishReduction, parity)
	}
	fmt.Fprintf(w, "\nFleet aggregate: %d campaigns x %d workers, %d vectors in %.2fs = %.0f vectors/sec\n",
		bench.FleetCampaigns, bench.FleetWorkers, bench.FleetTotalVectors,
		float64(bench.FleetWallNS)/1e9, bench.FleetVectorsPerSec)

	out, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(out, '\n'), 0o644)
}

// measureWire runs the same campaign on both publish encodings and
// tallies what crossed the wire on the publish plane.
func measureWire(benchName string, budget uint64, workers int, seed int64) (*FleetRow, error) {
	spec := dist.CampaignSpec{
		Bench:                 benchName,
		Interval:              100,
		Threshold:             2,
		MaxVectors:            budget,
		Seed:                  seed,
		Workers:               workers,
		UseSnapshots:          true,
		ContinueAfterCoverage: true,
	}

	syncRep, syncWire, err := runWireArm(spec, true)
	if err != nil {
		return nil, fmt.Errorf("sync arm: %w", err)
	}
	batchRep, batchWire, err := runWireArm(spec, false)
	if err != nil {
		return nil, fmt.Errorf("batch arm: %w", err)
	}

	row := &FleetRow{Bench: benchName, Budget: budget, Workers: workers}
	for _, e := range syncWire {
		if e.RPC == "publish" {
			row.SyncCalls += e.Calls
			row.SyncBytes += e.BytesIn
		}
	}
	for _, e := range batchWire {
		if e.RPC == "batch" || e.RPC == "publish" {
			row.BatchCalls += e.Calls
			row.BatchBytes += e.BytesIn
		}
	}
	if row.BatchBytes > 0 {
		row.PublishReduction = float64(row.SyncBytes) / float64(row.BatchBytes)
	}
	row.MergedEqual = syncRep.Merged.Vectors == batchRep.Merged.Vectors &&
		syncRep.Merged.FinalPoints == batchRep.Merged.FinalPoints &&
		syncRep.Merged.NodesTotal == batchRep.Merged.NodesTotal &&
		syncRep.Merged.EdgesTotal == batchRep.Merged.EdgesTotal
	return row, nil
}

// runWireArm hosts the campaign on a one-campaign fleet over loopback,
// runs its workers with the chosen publish encoding, and returns the
// merged report plus the campaign's wire ledger.
func runWireArm(spec dist.CampaignSpec, syncPublish bool) (*par.Report, []prof.WireEntry, error) {
	co, err := fleet.NewServer("127.0.0.1:0", fleet.Config{}, dist.CoordConfig{Spec: spec})
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, spec.Workers)
	for i := 0; i < spec.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dist.RunWorker(ctx, dist.WorkerConfig{
				Addr:        co.Addr(),
				WorkerID:    fmt.Sprintf("wire-w%d", i),
				RankHint:    i,
				SyncPublish: syncPublish,
			})
		}(i)
	}
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			return nil, nil, fmt.Errorf("worker %d: %w", i, werr)
		}
	}
	rep, err := co.WaitCampaign(ctx, "")
	cs, _ := co.State("")
	ledger := cs.WireLedger()
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = co.Shutdown(sctx)
	cancel()
	return rep, ledger, err
}

// measureFleetAggregate multiplexes campaigns on one fleet server and
// records the aggregate vector throughput.
func measureFleetAggregate(bench *FleetBench, seed int64) error {
	const (
		campaigns = 3
		workers   = 2
		budget    = 2000
	)
	dir, err := os.MkdirTemp("", "benchfleet")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	srv, err := fleet.NewServer("127.0.0.1:0", fleet.Config{JournalDir: dir})
	if err != nil {
		return err
	}
	defer srv.Shutdown(context.Background())

	names := make([]string, campaigns)
	start := time.Now()
	for i := 0; i < campaigns; i++ {
		names[i] = fmt.Sprintf("bench-%d", i)
		req := fleet.CreateRequest{
			Name: names[i],
			Spec: dist.CampaignSpec{
				Bench:                 "scmi_mailbox",
				Interval:              100,
				Threshold:             2,
				MaxVectors:            budget,
				Seed:                  seed + int64(i),
				Workers:               workers,
				UseSnapshots:          true,
				ContinueAfterCoverage: true,
			},
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := http.Post("http://"+srv.Addr()+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("create %s: status %d", names[i], resp.StatusCode)
		}
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, campaigns*workers)
	for c := 0; c < campaigns; c++ {
		for r := 0; r < workers; r++ {
			wg.Add(1)
			go func(c, r int) {
				defer wg.Done()
				errs[c*workers+r] = dist.RunWorker(ctx, dist.WorkerConfig{
					Addr:     srv.Addr(),
					Campaign: names[c],
					WorkerID: fmt.Sprintf("agg-c%d-w%d", c, r),
					RankHint: r,
				})
			}(c, r)
		}
	}
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			return fmt.Errorf("worker %d: %w", i, werr)
		}
	}

	var total uint64
	for _, name := range names {
		rep, err := srv.WaitCampaign(ctx, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		total += rep.Merged.Vectors
	}
	wall := time.Since(start)

	bench.FleetCampaigns = campaigns
	bench.FleetWorkers = workers
	bench.FleetTotalVectors = total
	bench.FleetWallNS = int64(wall)
	if wall > 0 {
		bench.FleetVectorsPerSec = float64(total) / wall.Seconds()
	}
	return nil
}
