package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/cfg"
	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/lint"
	"repro/internal/logic"
	"repro/internal/uvm"
)

// setupProbes is how many fresh elaborations the set-up probe times;
// each span reports its median.
const setupProbes = 3

// setupSpans lists the probe's spans in the order core.New runs them.
var setupSpans = []string{
	"hdl.parse_ms", "elab.elaborate_ms", "uvm.env_ms",
	"cfg.transition_ms", "cfg.partition_ms", "lint.reachability_ms",
}

// measureLayers first checks that every layer-map entry point is in
// the running binary and, on a workload with a twin, runs every seed on
// the twin's backend for the reference digests. It then runs each
// campaign seed untraced and traced, alternating which goes first from
// pass to pass, and reports per-layer metrics:
// set-up spans, self CPU per vector from the traced campaigns' CPU
// profiles, counts from the traced reports and cost ledgers, the
// engine's own clocks from the untraced reports, and the tracing
// overhead between the two.
func measureLayers(ctx context.Context, w workload, seed int64, budget time.Duration, res *result) {
	res.attempted++
	exe, err := os.Executable()
	if err == nil {
		err = checkLayerMap(exe)
	}
	if err != nil {
		res.fail("layer map: %v", err)
		return
	}
	seeds := w.campaignSeeds(seed)
	if w.twin != "" && !runUntimed(ctx, w, seeds, w.twin, res) {
		return
	}
	var plain, traced []*campaign
	runPasses(ctx, res, budget, func(pass int) {
		for _, s := range seeds {
			for i := 0; i < 2; i++ {
				withTrace := (i+pass)%2 == 1
				what := "untraced"
				if withTrace {
					what = "traced"
				}
				res.attempted++
				c, err := runCampaign(ctx, w, s, w.backend, withTrace)
				if err != nil {
					res.fail("seed %d (%s): %v", s, what, err)
					continue
				}
				res.log(c)
				if !res.checkDigest(s, c.digest, what) || !checkTarget(res, w, c) {
					continue
				}
				if withTrace {
					traced = append(traced, c)
				} else {
					plain = append(plain, c)
				}
			}
		}
	})

	res.attempted++
	spans, stats, err := probeSetup(w, seeds[0])
	if err != nil {
		res.fail("setup probe: %v", err)
	} else {
		for _, n := range setupSpans {
			res.set(n, spans[n], "ms")
		}
		if len(plain) > 0 && stats != plain[0].report.GraphStats {
			res.fail("setup probe: BuildPartition stats %+v differ from the engine's %+v", stats, plain[0].report.GraphStats)
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return
	}

	// Self CPU per vector, from every traced campaign's profile.
	vectors := sum(traced, func(c *campaign) float64 { return float64(c.report.Vectors) })
	byLayer := map[string]int64{}
	var total int64
	samples := 0
	for _, c := range traced {
		for _, s := range c.profile {
			byLayer[attribute(s.stack)] += s.ns
			total += s.ns
			samples++
		}
	}
	for _, l := range cpuLayers() {
		res.set(l, float64(byLayer[l])/1e3/vectors, "us/vector")
	}
	res.samples = samples
	if total == 0 {
		res.fail("traced campaigns recorded no CPU samples")
	} else if share := float64(byLayer[otherLayer]) / float64(total); share > maxOtherShare {
		res.fail("other_us is %.1f%% of CPU samples (limit %.0f%%): the layer map misses a hot entry point", 100*share, 100*maxOtherShare)
	}

	// Counts from the traced reports and ledgers, which equal the
	// untraced reports by the digest check. Every pass runs every seed,
	// so means over campaigns are means over seeds.
	rep := func(f func(c *campaign) float64) float64 { return sum(traced, f) }
	disp := rep(func(c *campaign) float64 { return float64(c.report.Timings.Solve.Dispatches) })
	perDispatch := func(v float64) float64 {
		if disp == 0 {
			return 0
		}
		return v / disp
	}
	res.set("sim.evals_per_vector", rep(func(c *campaign) float64 { return float64(c.evals) })/vectors, "count/vector")
	res.set("sim.cycles_per_vector", rep(func(c *campaign) float64 { return float64(c.report.Cycles) })/vectors, "count/vector")
	res.set("core.symbolic_invocations", mean(traced, func(c *campaign) float64 { return float64(c.report.SymbolicInvocations) }), "count")
	res.set("smt.dispatches", disp/float64(len(traced)), "count")
	res.set("core.plan_yield", perDispatch(rep(func(c *campaign) float64 { return float64(c.report.SolvedPlans) })), "ratio")
	res.set("core.rollbacks", mean(traced, func(c *campaign) float64 { return float64(c.report.Rollbacks) }), "count")
	res.set("sim.checkpoint_mb", mean(traced, func(c *campaign) float64 { return float64(c.report.Timings.CheckpointBytes) })/(1<<20), "MB")
	res.set("core.pruned_solves", mean(traced, func(c *campaign) float64 { return float64(c.report.PrunedSolves) }), "count")
	res.set("cfg.infeasible_targets", mean(traced, func(c *campaign) float64 { return float64(c.report.InfeasibleTargets) }), "count")
	res.set("smt.clauses_per_dispatch", perDispatch(rep(func(c *campaign) float64 { return float64(c.report.Timings.Solve.Clauses) })), "count/dispatch")
	res.set("smt.conflicts_per_dispatch", perDispatch(rep(func(c *campaign) float64 { return float64(c.report.Timings.Solve.Conflicts) })), "count/dispatch")

	// The engine's always-on clocks, from the untraced reports.
	clock := func(f func(c *campaign) float64) float64 { return sum(plain, f) }
	plainDisp := clock(func(c *campaign) float64 { return float64(c.report.Timings.Solve.Dispatches) })
	res.set("core.symbolic_share", clock(func(c *campaign) float64 { return float64(c.report.Timings.SymbolicNS) })/
		clock(func(c *campaign) float64 { return float64(c.report.Timings.TotalNS) }), "ratio")
	nsPerDispatch := func(f func(c *campaign) float64) float64 {
		if plainDisp == 0 {
			return 0
		}
		return clock(f) / plainDisp
	}
	res.set("smt.blast_ns_per_dispatch", nsPerDispatch(func(c *campaign) float64 { return float64(c.report.Timings.Solve.BlastNS) }), "ns/dispatch")
	res.set("smt.cdcl_ns_per_dispatch", nsPerDispatch(func(c *campaign) float64 { return float64(c.report.Timings.Solve.CDCLNS) }), "ns/dispatch")

	// Tracing overhead: throughput lost by the traced campaigns.
	vps := func(cs []*campaign) float64 {
		return sum(cs, func(c *campaign) float64 { return float64(c.report.Vectors) }) / sum(cs, func(c *campaign) float64 { return c.wallS })
	}
	res.set("trace.vectors_per_s", vps(traced), "1/s")
	res.set("trace.overhead_pct", 100*(vps(plain)-vps(traced))/vps(plain), "%")
}

// probeSetup times each public set-up function on fresh elaborations,
// in the order core.New calls them, and returns the median of each span
// with the stats of the partition it built, so the caller can check
// that the probe timed the graph the engine builds.
func probeSetup(w workload, seed int64) (map[string]float64, cfg.Stats, error) {
	all := map[string][]float64{}
	var stats cfg.Stats
	for i := 0; i < setupProbes; i++ {
		spans, st, err := probeSetupOnce(w, seed)
		if err != nil {
			return nil, cfg.Stats{}, err
		}
		stats = st
		for n, v := range spans {
			all[n] = append(all[n], v)
		}
	}
	out := map[string]float64{}
	for n, vs := range all {
		out[n] = median(vs)
	}
	return out, stats, nil
}

func probeSetupOnce(w workload, seed int64) (map[string]float64, cfg.Stats, error) {
	b := designs.OpenTitanMini(nil)
	spans := map[string]float64{}
	timed := func(name string, f func() error) error {
		t := time.Now()
		err := f()
		spans[name] = float64(time.Since(t).Nanoseconds()) / 1e6
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var (
		src  *hdl.Source
		d    *elab.Design
		env  *uvm.Env
		tr   *cfg.Transition
		part *cfg.Partition
	)
	err := timed("hdl.parse_ms", func() (err error) {
		src, err = hdl.Parse(b.Source)
		return err
	})
	if err == nil {
		err = timed("elab.elaborate_ms", func() (err error) {
			d, err = elab.Elaborate(src, b.Top, nil)
			return err
		})
	}
	if err == nil {
		err = timed("uvm.env_ms", func() (err error) {
			env, err = uvm.NewEnv(d, uvm.EnvConfig{Seed: seed, Properties: b.Properties, ResetCycles: 2, SimBackend: w.backend})
			if err != nil {
				return err
			}
			return env.Reset()
		})
	}
	if err == nil {
		err = timed("cfg.transition_ms", func() (err error) {
			tr, err = cfg.BuildTransition(d)
			return err
		})
	}
	if err != nil {
		return nil, cfg.Stats{}, err
	}
	// The engine pins reset deasserted and builds the graph from the
	// post-reset control-register values.
	opts := cfg.Options{Pin: map[string]logic.BV{}}
	if r := env.ClockInfo.Reset; r >= 0 {
		v := logic.Ones(1)
		if !env.ClockInfo.ActiveLow {
			v = logic.Zero(1)
		}
		opts.Pin[d.Signals[r].Name] = v
	}
	resetVals := map[int]logic.BV{}
	for _, cr := range cfg.ControlRegisters(d) {
		resetVals[cr.Sig.Index] = env.Sim.Get(cr.Sig.Index)
	}
	err = timed("cfg.partition_ms", func() (err error) {
		part, err = cfg.BuildPartition(d, tr, resetVals, opts)
		return err
	})
	if err != nil {
		return nil, cfg.Stats{}, err
	}
	_ = timed("lint.reachability_ms", func() error {
		lint.AnalyzeReachability(d)
		return nil
	})
	return spans, part.Stats(), nil
}
