package main

import (
	"fmt"
	"io"
	"runtime"

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
// throughput across all ranks.

// FleetRow is one design's sync-publish vs delta-batch wire
// measurement.
type FleetRow struct {
	Bench   string `json:"bench"`
	Budget  uint64 `json:"budget"`
	Workers int    `json:"workers"`

	// SyncBytes / SyncCalls tally the /v1/publish request payloads of
	// the ablation arm; BatchBytes / BatchCalls tally the /v1/batch
	// request payloads of the default arm. The batched worker sends no
	// /v1/publish at all (it drains its last batch, then ships its
	// full coverage on /v1/report, outside both tallies), but any
	// publish it did send would count in BatchBytes, so the ratio
	// covers everything the batched worker sends on the publish plane.
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
	header
	Cores int    `json:"cores"`
	Seed  int64  `json:"seed"`
	Note  string `json:"note"`

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

const fleetWorkers = 2

func runFleet(seed int64, _ int, w io.Writer) (record, error) {
	rows, err := rowsFor(wireTargets, func(t target) (FleetRow, error) { return measureWire(t, seed) })
	if err != nil {
		return nil, err
	}
	rec := &FleetBench{
		Cores: runtime.NumCPU(),
		Seed:  seed,
		Note: "publish_reduction compares /v1/publish full-snapshot bytes (SyncPublish ablation) " +
			"against /v1/batch delta bytes for the identical fixed-budget campaign; " +
			"fleet_vectors_per_sec is aggregate throughput of concurrent campaigns multiplexed " +
			"on one fleet coordinator over loopback",
		Rows: rows,
	}
	if err := rec.measureAggregate(seed); err != nil {
		return nil, fmt.Errorf("aggregate: %w", err)
	}

	fmt.Fprintf(w, "Publish wire overhead (sync full snapshots vs delta batches, %d workers, full budget)\n", fleetWorkers)
	fmt.Fprintf(w, "%-16s %8s %10s %12s %10s %12s %10s %8s\n",
		"bench", "budget", "sync rpcs", "sync bytes", "batch rpcs", "batch bytes", "reduction", "parity")
	for _, r := range rec.Rows {
		parity := "ok"
		if !r.MergedEqual {
			parity = "MISMATCH"
		}
		fmt.Fprintf(w, "%-16s %8d %10d %12d %10d %12d %9.2fx %8s\n",
			r.Bench, r.Budget, r.SyncCalls, r.SyncBytes, r.BatchCalls, r.BatchBytes,
			r.PublishReduction, parity)
	}
	fmt.Fprintf(w, "\nFleet aggregate: %d campaigns x %d workers, %d vectors in %.2fs = %.0f vectors/sec\n",
		rec.FleetCampaigns, rec.FleetWorkers, rec.FleetTotalVectors,
		float64(rec.FleetWallNS)/1e9, rec.FleetVectorsPerSec)
	return rec, nil
}

// measureWire runs the same campaign on both publish encodings and
// tallies what crossed the wire on the publish plane.
func measureWire(t target, seed int64) (FleetRow, error) {
	spec := campaignSpec(t.name, t.budget, seed, fleetWorkers)
	arm := func(syncPublish bool) (*par.Report, []prof.WireEntry, error) {
		var ledger []prof.WireEntry
		reps, _, err := loopback([]dist.CoordConfig{{Spec: spec}}, false,
			func(wc *dist.WorkerConfig) { wc.SyncPublish = syncPublish },
			func(srv *fleet.Server) {
				if cs, err := srv.State(""); err == nil {
					ledger = cs.WireLedger()
				}
			})
		if err != nil {
			return nil, nil, err
		}
		return reps[0], ledger, nil
	}
	syncRep, syncWire, err := arm(true)
	if err != nil {
		return FleetRow{}, fmt.Errorf("sync arm: %w", err)
	}
	batchRep, batchWire, err := arm(false)
	if err != nil {
		return FleetRow{}, fmt.Errorf("batch arm: %w", err)
	}

	row := FleetRow{Bench: t.name, Budget: t.budget, Workers: fleetWorkers}
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

// measureAggregate multiplexes campaigns on one fleet server and
// records the aggregate vector throughput.
func (rec *FleetBench) measureAggregate(seed int64) error {
	const (
		campaigns = 3
		budget    = 2000
	)
	ccs := make([]dist.CoordConfig, campaigns)
	for i := range ccs {
		ccs[i] = dist.CoordConfig{
			Name: fmt.Sprintf("bench-%d", i),
			Spec: campaignSpec("scmi_mailbox", budget, seed+int64(i), fleetWorkers),
		}
	}
	reps, wall, err := loopback(ccs, false, nil, nil)
	if err != nil {
		return err
	}
	rec.FleetCampaigns = campaigns
	rec.FleetWorkers = fleetWorkers
	rec.FleetWallNS = wall
	for _, rep := range reps {
		rec.FleetTotalVectors += rep.Merged.Vectors
	}
	if wall > 0 {
		rec.FleetVectorsPerSec = float64(rec.FleetTotalVectors) / (float64(wall) / 1e9)
	}
	return nil
}
