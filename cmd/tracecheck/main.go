// Command tracecheck validates a SymbFuzz campaign trace (the JSONL
// stream written by symbfuzz -trace) against the event schema: every
// line a known typed event, monotonic timestamps and vector counts,
// campaign_start/campaign_end framing. It then checks the causal-span
// layer for referential integrity: every parent span exists, the
// parent graph is acyclic and rooted in campaign spans, and cache-hit
// attributions resolve. With -metrics it additionally cross-checks the
// trace's final coverage_points against the metrics snapshot's
// coverage_points gauge, so trace and registry reconcile. With -bench
// it elaborates the named benchmark, rebuilds its static CFG, and
// verifies every solve span targets a CFG edge that actually exists.
//
// Usage:
//
//	tracecheck trace.jsonl
//	tracecheck -metrics metrics.json trace.jsonl
//	tracecheck -bench scmi_mailbox trace.jsonl
//	symbfuzz ... -trace /dev/stdout | tracecheck -
//
// Exit status 0 on a valid trace, 1 otherwise.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
)

func main() {
	metrics := flag.String("metrics", "", "metrics snapshot JSON to reconcile coverage_points against")
	bench := flag.String("bench", "", "benchmark name: cross-check solve spans against its static CFG")
	fixed := flag.Bool("fixed", false, "with -bench, use the bug-fixed design variant")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-metrics metrics.json] [-bench name] <trace.jsonl | ->")
		os.Exit(1)
	}

	var data []byte
	var err error
	if flag.Arg(0) == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		fail(err)
	}

	sum, err := obs.ValidateTrace(bytes.NewReader(data))
	if err != nil {
		invalid(err)
	}
	events, err := obs.ReadEvents(bytes.NewReader(data))
	if err != nil {
		invalid(err)
	}
	spans, err := obs.ValidateSpans(events)
	if err != nil {
		invalid(fmt.Errorf("span integrity: %w", err))
	}

	if *metrics != "" {
		raw, err := os.ReadFile(*metrics)
		if err != nil {
			fail(err)
		}
		var snap obs.StatusSnapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			fail(fmt.Errorf("metrics: %w", err))
		}
		if got := snap.Metrics.Gauges["coverage_points"]; got != int64(sum.FinalPoints) {
			invalid(fmt.Errorf("trace final coverage_points %d != metrics gauge %d", sum.FinalPoints, got))
		}
		if got := snap.Metrics.Gauges["vectors_applied"]; got != int64(sum.FinalVectors) {
			invalid(fmt.Errorf("trace final vectors %d != metrics gauge %d", sum.FinalVectors, got))
		}
	}

	solvesChecked := -1
	if *bench != "" {
		solvesChecked, err = checkSolveEdges(*bench, *fixed, events)
		if err != nil {
			invalid(err)
		}
	}

	fmt.Printf("valid trace: %d events, %d vectors, %d coverage points, %d bugs\n",
		sum.Events, sum.FinalVectors, sum.FinalPoints, sum.Bugs)
	for _, typ := range []string{
		obs.EvIntervalEnd, obs.EvStagnation, obs.EvSolverDisp, obs.EvPlanApplied,
		obs.EvRollback, obs.EvCheckpoint, obs.EvPruneSkip, obs.EvBugFound, obs.EvCovDropped,
	} {
		if n := sum.ByType[typ]; n > 0 {
			fmt.Printf("  %-20s %6d\n", typ, n)
		}
	}
	fmt.Printf("valid spans: %d spans, %d campaign roots, %d cross-rank links\n",
		spans.Spans, spans.Roots, spans.CrossRankLinks)
	for _, kind := range []string{
		obs.SpanInterval, obs.SpanStimBatch, obs.SpanStagnate,
		obs.SpanSolve, obs.SpanPlanApply, obs.SpanCovDelta,
	} {
		if n := spans.ByKind[kind]; n > 0 {
			fmt.Printf("  %-20s %6d\n", kind, n)
		}
	}
	if spans.DanglingOrigins > 0 {
		fmt.Printf("  note: %d cache-hit origins not in this trace (partial merge?)\n", spans.DanglingOrigins)
	}
	if chain, ok := obs.FindCrossRankChain(events); ok {
		fmt.Printf("cross-process chain: %s (rank %d) -> %s (rank %d) +%d points\n",
			chain.Solve, chain.OriginRank, chain.HitSolve, chain.HitRank, chain.Gained)
	}
	if solvesChecked >= 0 {
		fmt.Printf("solve spans vs %s CFG: %d checked, all edges exist\n", *bench, solvesChecked)
	}
}

// checkSolveEdges prepares the benchmark's static model with the
// engine's defaults (core.Prepare: post-reset valuation, reset input
// pinned deasserted, default exploration bounds) and verifies every
// solve span in the trace names a (cluster, edge) that exists in its
// CFG.
func checkSolveEdges(name string, fixed bool, events []obs.Event) (int, error) {
	b, _, err := dist.ResolveSpec(dist.CampaignSpec{Bench: name, Fixed: fixed})
	if err != nil {
		return 0, err
	}
	d, err := b.Elaborate()
	if err != nil {
		return 0, err
	}
	m, err := core.Prepare(d, core.Config{DisablePruning: true})
	if err != nil {
		return 0, err
	}
	part := m.Partition()

	checked := 0
	for _, ev := range events {
		if ev.Type != obs.EvSpan || ev.Kind != obs.SpanSolve {
			continue
		}
		checked++
		if !part.HasEdge(ev.Graph, ev.Edge) {
			return 0, fmt.Errorf("solve span %s targets edge %d of cluster %d, which does not exist in %s's CFG",
				ev.Span, ev.Edge, ev.Graph, name)
		}
	}
	return checked, nil
}

func invalid(err error) {
	fmt.Fprintln(os.Stderr, "tracecheck: INVALID:", err)
	os.Exit(1)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracecheck:", err)
	os.Exit(1)
}
