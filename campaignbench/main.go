// Command campaignbench measures whole SymbFuzz campaigns on the
// opentitan_mini SoC through the public engine API (elaborate, core.New,
// RunContext) and prints end-to-end metrics (-trace 0) or a per-layer
// breakdown of the same campaigns (-trace 1). README.md describes the
// workloads, the metrics and what each layer is predicted to move.
//
//	bash campaignbench/run.sh --workload soc_fuzz --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the full
// record (argv, seeds, Go version, CPU counts, report digests).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload is one campaign configuration. Every workload runs
// opentitan_mini with all fourteen bugs, snapshots on, and fuzzing past
// full CFG coverage until the vector budget is spent.
type workload struct {
	name      string
	backend   string
	interval  int
	threshold int
	// vectors is each campaign's budget.
	vectors uint64
	// target is the coverage-point count that ends time_to_target_s;
	// every campaign must reach it well inside the vector budget.
	target int
	// seeds is the number of campaigns, each with its own seed, in one
	// pass. Fuzzing trajectories spread more from seed to seed than
	// guided ones (a coefficient of variation of 0.13 against 0.03 in
	// vectors to target), so the fuzzing workloads run more, shorter
	// campaigns.
	seeds int
	// twin names the backend whose report for the same seed must be
	// byte-identical to this workload's ("" for none).
	twin string
}

var workloads = []workload{
	{name: "soc_fuzz", backend: "compiled", interval: 300, threshold: 3, vectors: 6_000, target: 1450, seeds: 20},
	{name: "soc_guided", backend: "compiled", interval: 40, threshold: 2, vectors: 20_000, target: 2900, seeds: 6},
	{name: "soc_fuzz_interp", backend: "interp", interval: 300, threshold: 3, vectors: 6_000, target: 1450, seeds: 20, twin: "compiled"},
}

// runTimeout bounds one invocation; an interrupted campaign fails.
const runTimeout = 150 * time.Second

// campaignSeeds derives one run's campaign seeds from -seed. The first
// is -seed itself; the others come from a SplitMix64 sequence started at
// it, so that the campaigns of one run are unrelated to each other and
// to those of runs with nearby seeds.
func (w workload) campaignSeeds(seed int64) []int64 {
	out := make([]int64, w.seeds)
	out[0] = seed
	x := uint64(seed)
	for k := 1; k < len(out); k++ {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		out[k] = int64((z ^ z>>31) >> 1)
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one invocation's outcome.
type result struct {
	attempted int
	failures  []string
	metrics   map[string]metric
	order     []string
	digests   map[int64]string
	passes    int
	// samples counts the CPU-profile samples behind the per-layer
	// self-CPU metrics.
	samples int
	// runs logs every measured campaign for the record.
	runs []campaignLog
}

// campaignLog is one campaign's line in the printed record.
type campaignLog struct {
	Seed    int64   `json:"seed"`
	Backend string  `json:"backend"`
	Traced  bool    `json:"traced,omitempty"`
	SetupS  float64 `json:"setup_s"`
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	// TargetS / TargetVectors time the coverage target (0 when missed).
	TargetS       float64 `json:"target_s"`
	TargetVectors uint64  `json:"target_vectors"`
}

// log records a finished campaign.
func (r *result) log(c *campaign) {
	r.runs = append(r.runs, campaignLog{
		Seed: c.seed, Backend: c.backend, Traced: c.traced,
		SetupS: c.setupS, WallS: c.wallS, CPUS: c.cpuS,
		TargetS: c.targetS, TargetVectors: c.targetVectors,
	})
}

func (r *result) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Fprintln(os.Stderr, "campaignbench: FAIL:", msg)
}

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// checkDigest compares a campaign's report digest with the first one
// recorded for its seed in this run.
func (r *result) checkDigest(seed int64, digest, what string) bool {
	ref, ok := r.digests[seed]
	if !ok {
		r.digests[seed] = digest
		return true
	}
	if ref != digest {
		r.fail("seed %d: %s report digest %s differs from %s", seed, what, digest, ref)
		return false
	}
	return true
}

func main() {
	name := flag.String("workload", "", "workload: soc_fuzz, soc_guided or soc_fuzz_interp")
	seed := flag.Int64("seed", 1, "workload seed; campaign seeds are derived from it")
	seconds := flag.Int("seconds", 30, "measurement time; passes repeat while the next one fits")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from traced campaigns")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "campaignbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	res := &result{metrics: map[string]metric{}, digests: map[int64]string{}}
	budget := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		measureEndToEnd(ctx, w, *seed, budget, res)
	} else {
		measureLayers(ctx, w, *seed, budget, res)
	}

	for _, n := range res.order {
		m := res.metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("%s: %d failed of %d attempted\n", w.name, len(res.failures), res.attempted)

	argv := append([]string{"bash", "campaignbench/run.sh"}, os.Args[1:]...)
	seeds := map[string]string{}
	for s, d := range res.digests {
		seeds[fmt.Sprint(s)] = d
	}
	record := map[string]any{
		"record":          "campaignbench/v1",
		"argv":            argv,
		"workload":        w.name,
		"seed":            *seed,
		"seconds":         *seconds,
		"trace":           *trace,
		"go":              runtime.Version(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"campaign_seeds":  w.campaignSeeds(*seed),
		"passes":          res.passes,
		"profile_samples": res.samples,
		"report_digests":  seeds,
		"campaigns":       res.runs,
		"failures":        res.failures,
		"metrics":         res.metrics,
	}
	printJSON(record)
	printJSON(map[string]any{
		"correct":   len(res.failures) == 0,
		"attempted": res.attempted,
		"failed":    len(res.failures),
		"metrics":   res.metrics,
	})
	if len(res.failures) > 0 {
		os.Exit(1)
	}
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// runPasses runs pass after pass while another fits in the budget,
// judging by the last pass's length. The first pass always runs; none
// follows a failure.
func runPasses(ctx context.Context, res *result, budget time.Duration, pass func(n int)) {
	start := time.Now()
	for n, last := 0, time.Duration(0); n == 0 || time.Since(start)+last <= budget; n++ {
		t := time.Now()
		pass(n)
		res.passes++
		if ctx.Err() != nil || len(res.failures) > 0 {
			return
		}
		last = time.Since(t)
	}
}

// measureEndToEnd runs untraced passes over the workload's campaign
// seeds. Wall and CPU rates and set-up time are medians over campaigns.
// The other metrics are means over campaigns, which equal means over
// the seeds because every pass runs every seed; time_to_target_s is one
// of them because it moves in steps of one interval, so its median
// would jump a whole step between runs.
func measureEndToEnd(ctx context.Context, w workload, seed int64, budget time.Duration, res *result) {
	seeds := w.campaignSeeds(seed)
	// Untimed campaigns warm the process up. On a workload with a twin
	// they run every seed on the twin's backend, so every timed campaign
	// is compared with the twin's report, and as they take about as long
	// as a pass they count against the budget; otherwise one on the
	// first seed is enough.
	start := time.Now()
	if w.twin == "" {
		if !runUntimed(ctx, w, seeds[:1], w.backend, res) {
			return
		}
	} else {
		if !runUntimed(ctx, w, seeds, w.twin, res) {
			return
		}
		budget -= time.Since(start)
	}
	var cs []*campaign
	runPasses(ctx, res, budget, func(int) {
		for _, s := range seeds {
			res.attempted++
			c, err := runCampaign(ctx, w, s, w.backend, false)
			if err != nil {
				res.fail("seed %d: %v", s, err)
				continue
			}
			res.log(c)
			if res.checkDigest(s, c.digest, w.backend) && checkTarget(res, w, c) {
				cs = append(cs, c)
			}
		}
	})
	if len(res.failures) > 0 || len(cs) == 0 {
		return
	}
	vectors := sum(cs, func(c *campaign) float64 { return float64(c.report.Vectors) })
	res.set("vectors_per_s", medianOf(cs, func(c *campaign) float64 { return float64(c.report.Vectors) / c.wallS }), "1/s")
	res.set("cpu_us_per_vector", medianOf(cs, func(c *campaign) float64 { return 1e6 * c.cpuS / float64(c.report.Vectors) }), "us/vector")
	res.set("time_to_target_s", mean(cs, func(c *campaign) float64 { return c.targetS }), "s")
	res.set("vectors_to_target", mean(cs, func(c *campaign) float64 { return float64(c.targetVectors) }), "count")
	res.set("setup_s", medianOf(cs, func(c *campaign) float64 { return c.setupS }), "s")
	res.set("allocs_per_vector", sum(cs, func(c *campaign) float64 { return float64(c.allocs) })/vectors, "count/vector")
	res.set("alloc_bytes_per_vector", sum(cs, func(c *campaign) float64 { return float64(c.allocBytes) })/vectors, "B/vector")
	res.set("live_heap_peak_mb", mean(cs, func(c *campaign) float64 { return float64(c.heapPeak) })/(1<<20), "MB")
	res.set("coverage_points", mean(cs, func(c *campaign) float64 { return float64(c.report.FinalPoints) }), "count")
	res.set("bugs_found", mean(cs, func(c *campaign) float64 { return float64(len(c.report.Bugs)) }), "count")
}

// runUntimed runs one untimed campaign per seed on the given backend
// and records each report digest as its seed's reference. It reports
// whether every campaign ran.
func runUntimed(ctx context.Context, w workload, seeds []int64, backend string, res *result) bool {
	for _, s := range seeds {
		res.attempted++
		c, err := runCampaign(ctx, w, s, backend, false)
		if err != nil {
			res.fail("seed %d: untimed %s campaign: %v", s, backend, err)
			return false
		}
		res.log(c)
		res.checkDigest(s, c.digest, backend)
	}
	return true
}

// checkTarget fails a campaign that never reached its coverage target.
func checkTarget(res *result, w workload, c *campaign) bool {
	if c.targetVectors == 0 || c.targetS <= 0 {
		res.fail("seed %d: coverage target %d not reached (%d points after %d vectors)",
			c.seed, w.target, c.report.FinalPoints, c.report.Vectors)
		return false
	}
	return true
}

func sum(cs []*campaign, f func(*campaign) float64) float64 {
	t := 0.0
	for _, c := range cs {
		t += f(c)
	}
	return t
}

func mean(cs []*campaign, f func(*campaign) float64) float64 {
	return sum(cs, f) / float64(len(cs))
}

func medianOf(cs []*campaign, f func(*campaign) float64) float64 {
	vals := make([]float64, len(cs))
	for i, c := range cs {
		vals[i] = f(c)
	}
	return median(vals)
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
