// Package eval is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§5) on the OpenTitan-mini SoC,
// its IP blocks, and the three mini cores: Table 1 (bug details with
// input-vector counts), Table 2 (detection matrix across fuzzers),
// Table 3 (benchmark/CFG statistics), Figure 4a (coverage vs input
// vectors per fuzzer, averaged over runs), Figure 4b (coverage variance
// in the mid-campaign window), §5.4 (cross-paper core bugs), and the
// §5.5.2 scalability statistics.
//
// Budgets are scaled from the paper's multi-million-vector campaigns to
// laptop-scale deterministic runs; EXPERIMENTS.md records paper-versus-
// measured values.
package eval

import (
	"fmt"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/fuzzers"
)

// FuzzerNames lists the tools compared, in the paper's order.
var FuzzerNames = []string{"symbfuzz", "rfuzz", "difuzzrtl", "hwfp", "uvm-random"}

// Config scales the experiments.
type Config struct {
	// BudgetIP is the vector budget per IP-level run (Tables 1–2).
	BudgetIP uint64
	// BudgetSoC is the vector budget for SoC-level curves (Figure 4).
	BudgetSoC uint64
	// Runs averaged for Figure 4 (paper: 4).
	Runs int
	// Seed is the base seed; run i uses Seed+i.
	Seed int64
	// Interval and Threshold are Algorithm 1's I and Th.
	Interval  int
	Threshold int
}

func (c Config) withDefaults() Config {
	if c.BudgetIP == 0 {
		c.BudgetIP = 60_000
	}
	if c.BudgetSoC == 0 {
		c.BudgetSoC = 20_000
	}
	if c.Runs == 0 {
		c.Runs = 4
	}
	if c.Interval == 0 {
		c.Interval = 300
	}
	if c.Threshold == 0 {
		c.Threshold = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// prepare elaborates a benchmark and builds its static model; the
// model's partition is the reference coverage graph every fuzzer is
// measured against.
func prepare(b *designs.Benchmark, opts cfg.Options) (*core.Model, error) {
	d, err := b.Elaborate()
	if err != nil {
		return nil, err
	}
	return core.Prepare(d, core.Config{CFG: opts})
}

// runFuzzerOnBenchmark runs one named fuzzer on a benchmark's model.
func runFuzzerOnBenchmark(name string, b *designs.Benchmark, m *core.Model,
	budget uint64, seed int64, c Config) (*fuzzers.Result, error) {
	fc := fuzzers.Config{
		MaxVectors:  budget,
		Seed:        seed,
		CurveStride: budget / 100,
		Graph:       m.Partition(),
		Properties:  b.Properties,
	}
	d := m.Design()
	switch name {
	case "symbfuzz":
		return fuzzers.RunSymbFuzz(m, fc, core.Config{
			Interval:              c.Interval,
			Threshold:             c.Threshold,
			UseSnapshots:          true,
			ContinueAfterCoverage: true,
		})
	case "rfuzz":
		return fuzzers.NewRFuzz(d, fc).Run()
	case "difuzzrtl":
		return fuzzers.NewDifuzzRTL(d, fc).Run()
	case "hwfp":
		return fuzzers.NewHWFP(d, fc).Run()
	case "uvm-random":
		return fuzzers.NewUVMRandom(d, fc).Run()
	}
	return nil, fmt.Errorf("eval: unknown fuzzer %q", name)
}

// ---- Table 1 ----

// Table1Row reproduces one row of Table 1.
type Table1Row struct {
	Bug      designs.Bug
	IPName   string
	LoC      int
	Detected bool
	// Vectors is the input-vector count when the bug fired (column 6).
	Vectors uint64
}

// RunTable1 fuzzes every buggy IP with SymbFuzz and reports per-bug
// detection with input-vector counts.
func RunTable1(c Config) ([]Table1Row, error) {
	c = c.withDefaults()
	var rows []Table1Row
	for _, ip := range designs.AllIPs() {
		b := designs.IPBenchmark(ip, true)
		m, err := prepare(b, cfg.Options{})
		if err != nil {
			return nil, err
		}
		res, err := runFuzzerOnBenchmark("symbfuzz", b, m, c.BudgetIP, c.Seed, c)
		if err != nil {
			return nil, err
		}
		for _, bug := range ip.Bugs {
			p := bug.Property("")
			rows = append(rows, Table1Row{
				Bug:      bug,
				IPName:   ip.Name,
				LoC:      b.LoC,
				Detected: res.FoundBug(p.Name),
				Vectors:  res.VectorsFor(p.Name),
			})
		}
	}
	return rows, nil
}

// ---- Table 2 ----

// Table2Row is one bug's detection verdict per fuzzer.
type Table2Row struct {
	BugID    string
	Detected map[string]bool
}

// RunTable2 runs every fuzzer over every buggy IP and assembles the
// detection matrix of Table 2. Mirroring the paper's protocol ("each
// fuzzer was run four times"), a bug counts as detected when any of the
// runs finds it; c.Runs controls the repetition count.
func RunTable2(c Config) ([]Table2Row, error) {
	c = c.withDefaults()
	found := map[string]map[string]bool{} // bug ID -> fuzzer -> found
	for _, ip := range designs.AllIPs() {
		b := designs.IPBenchmark(ip, true)
		m, err := prepare(b, cfg.Options{})
		if err != nil {
			return nil, err
		}
		for _, fz := range FuzzerNames {
			if fz == "uvm-random" {
				continue // Table 2 compares the four fuzzers
			}
			for run := 0; run < c.Runs; run++ {
				res, err := runFuzzerOnBenchmark(fz, b, m, c.BudgetIP, c.Seed+int64(run*1009), c)
				if err != nil {
					return nil, err
				}
				for _, bug := range ip.Bugs {
					p := bug.Property("")
					if found[bug.ID] == nil {
						found[bug.ID] = map[string]bool{}
					}
					if res.FoundBug(p.Name) {
						found[bug.ID][fz] = true
					}
				}
			}
		}
	}
	var rows []Table2Row
	for _, bug := range designs.AllBugs() {
		rows = append(rows, Table2Row{BugID: bug.ID, Detected: found[bug.ID]})
	}
	return rows, nil
}

// ---- Table 3 ----

// Table3Row is one benchmark's static statistics.
type Table3Row struct {
	Benchmark   string
	LoC         int
	Nodes       int
	Edges       int
	DepEqns     int
	LatencyMS   int64
	Constraints int
}

// RunTable3 measures code size, CFG size, dependency-equation count,
// analysis latency and generated constraints for the four benchmarks.
func RunTable3(c Config) ([]Table3Row, error) {
	c = c.withDefaults()
	benches := []*designs.Benchmark{designs.OpenTitanMini(nil)}
	benches = append(benches, designs.CoreBenchmarks(true)...)
	opts := []cfg.Options{{MaxNodes: 256, MaxSuccessors: 8}, {}, {}, {}}
	var rows []Table3Row
	for i, b := range benches {
		start := time.Now()
		m, err := prepare(b, opts[i])
		if err != nil {
			return nil, err
		}
		st := m.Partition().Stats()
		rows = append(rows, Table3Row{
			Benchmark:   b.Name,
			LoC:         b.LoC,
			Nodes:       st.Nodes,
			Edges:       st.Edges,
			DepEqns:     st.DepEqns,
			LatencyMS:   time.Since(start).Milliseconds(),
			Constraints: st.Constraints,
		})
	}
	return rows, nil
}

// ---- Figure 4 ----

// Curve is an averaged coverage trajectory on a fixed vector grid.
type Curve struct {
	Vectors []uint64
	Points  []float64
}

// Figure4 holds both panels: averaged curves (4a) and the per-point
// variance across runs inside the mid-campaign window (4b).
type Figure4 struct {
	Series   map[string]Curve     // fuzzer -> averaged curve
	Variance map[string][]float64 // fuzzer -> variance on the window grid
	WindowLo uint64
	WindowHi uint64
	// SpeedupVsRandom is how many times fewer vectors SymbFuzz needs to
	// reach the coverage UVM random testing saturates at (paper: 6.8x).
	SpeedupVsRandom float64
	// RandomSaturation is random testing's final coverage relative to
	// SymbFuzz's (paper: 88-94%).
	RandomSaturation float64
}

// RunFigure4 runs every fuzzer c.Runs times over the buggy SoC's IP
// blocks — each tool fuzzes the IPs separately with the budget split
// across them, which is how RFuzz and HWFP drive OpenTitan in practice
// (per-module harnesses) — and assembles both panels of Figure 4 from
// the summed coverage trajectories.
func RunFigure4(c Config) (*Figure4, error) {
	c = c.withDefaults()
	ips := designs.AllIPs()
	perIP := c.BudgetSoC / uint64(len(ips))
	if perIP == 0 {
		perIP = 1
	}
	const gridN = 50
	ipGrid := makeGrid(perIP, gridN)
	grid := makeGrid(perIP*uint64(len(ips)), gridN)

	// Pre-build each IP's benchmark and static model once.
	type target struct {
		b *designs.Benchmark
		m *core.Model
	}
	var targets []target
	for _, ip := range ips {
		b := designs.IPBenchmark(ip, true)
		m, err := prepare(b, cfg.Options{})
		if err != nil {
			return nil, err
		}
		targets = append(targets, target{b: b, m: m})
	}

	raw := map[string][][]float64{}
	for _, fz := range FuzzerNames {
		for run := 0; run < c.Runs; run++ {
			total := make([]float64, gridN)
			for ti, tgt := range targets {
				res, err := runFuzzerOnBenchmark(fz, tgt.b, tgt.m, perIP,
					c.Seed+int64(run*131+ti*17), c)
				if err != nil {
					return nil, err
				}
				pts := sampleCurve(res.Curve, ipGrid)
				for i := range total {
					total[i] += pts[i]
				}
			}
			raw[fz] = append(raw[fz], total)
		}
	}
	fig := &Figure4{
		Series:   map[string]Curve{},
		Variance: map[string][]float64{},
		WindowLo: uint64(float64(c.BudgetSoC) * 0.44), // mirrors 4M of 9.1M
		WindowHi: uint64(float64(c.BudgetSoC) * 0.94), // mirrors 8.5M of 9.1M
	}
	for fz, runs := range raw {
		avg := make([]float64, len(grid))
		vr := make([]float64, len(grid))
		for i := range grid {
			var sum float64
			for _, r := range runs {
				sum += r[i]
			}
			mean := sum / float64(len(runs))
			avg[i] = mean
			var sq float64
			for _, r := range runs {
				dlt := r[i] - mean
				sq += dlt * dlt
			}
			vr[i] = sq / float64(len(runs))
		}
		fig.Series[fz] = Curve{Vectors: grid, Points: avg}
		// Variance restricted to the window.
		var winVar []float64
		for i, v := range grid {
			if v >= fig.WindowLo && v <= fig.WindowHi {
				winVar = append(winVar, vr[i])
			}
		}
		fig.Variance[fz] = winVar
	}
	fig.SpeedupVsRandom, fig.RandomSaturation = speedup(fig.Series["symbfuzz"], fig.Series["uvm-random"])
	return fig, nil
}

// makeGrid builds n evenly spaced vector counts up to budget.
func makeGrid(budget uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = budget * uint64(i+1) / uint64(n)
	}
	return out
}

// sampleCurve interpolates a result curve onto the grid (step-wise).
func sampleCurve(curve []core.CurvePoint, grid []uint64) []float64 {
	out := make([]float64, len(grid))
	j := 0
	last := 0.0
	for i, v := range grid {
		for j < len(curve) && curve[j].Vectors <= v {
			last = float64(curve[j].Points)
			j++
		}
		out[i] = last
	}
	return out
}

// speedup computes how many times fewer vectors symb needs to reach the
// random baseline's saturation coverage, plus the saturation ratio.
func speedup(symb, random Curve) (float64, float64) {
	if len(symb.Points) == 0 || len(random.Points) == 0 {
		return 0, 0
	}
	randFinal := random.Points[len(random.Points)-1]
	symbFinal := symb.Points[len(symb.Points)-1]
	sat := 0.0
	if symbFinal > 0 {
		sat = randFinal / symbFinal
	}
	// Vectors random needed to reach (approximately) its own final
	// level: the first grid point at >= 99% of final.
	randV := random.Vectors[len(random.Vectors)-1]
	for i, p := range random.Points {
		if p >= 0.99*randFinal {
			randV = random.Vectors[i]
			break
		}
	}
	// Vectors symb needed to reach that same coverage level.
	symbV := symb.Vectors[len(symb.Vectors)-1]
	reached := false
	for i, p := range symb.Points {
		if p >= randFinal {
			symbV = symb.Vectors[i]
			reached = true
			break
		}
	}
	if !reached {
		return 1, sat
	}
	if symbV == 0 {
		symbV = 1
	}
	return float64(randV) / float64(symbV), sat
}

// ---- §5.4 cores ----

// Section54Row reports V1–V3 detection on one core.
type Section54Row struct {
	Core  string
	Found map[string]bool // bug ID -> detected by SymbFuzz
}

// RunSection54 fuzzes the three cores with SymbFuzz.
func RunSection54(c Config) ([]Section54Row, error) {
	c = c.withDefaults()
	var rows []Section54Row
	for _, b := range designs.CoreBenchmarks(true) {
		m, err := prepare(b, cfg.Options{})
		if err != nil {
			return nil, err
		}
		res, err := runFuzzerOnBenchmark("symbfuzz", b, m, c.BudgetIP, c.Seed, c)
		if err != nil {
			return nil, err
		}
		row := Section54Row{Core: b.Name, Found: map[string]bool{}}
		for _, bug := range b.Bugs {
			row.Found[bug.ID] = res.FoundBug(bug.Property("").Name)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---- §5.5.2 scalability ----

// Scalability summarizes checkpoint and convergence statistics.
type Scalability struct {
	Benchmark        string
	EdgeStatePairs   int // explored ⟨edge, state⟩ tuples
	CheckpointsTaken int
	Rollbacks        int
	SymbolicCalls    int
	Vectors          uint64
}

// RunScalability fuzzes the SoC once with SymbFuzz and reports the
// §5.5.2 statistics.
func RunScalability(c Config) (*Scalability, error) {
	c = c.withDefaults()
	b := designs.OpenTitanMini(nil)
	d, err := b.Elaborate()
	if err != nil {
		return nil, err
	}
	eng, err := core.New(d, b.Properties, core.Config{
		Interval:              c.Interval,
		Threshold:             c.Threshold,
		MaxVectors:            c.BudgetSoC,
		Seed:                  c.Seed,
		UseSnapshots:          true,
		ContinueAfterCoverage: true,
		CFG:                   cfg.Options{MaxNodes: 256, MaxSuccessors: 8},
	})
	if err != nil {
		return nil, err
	}
	rep, err := eng.Run()
	if err != nil {
		return nil, err
	}
	return &Scalability{
		Benchmark:        b.Name,
		EdgeStatePairs:   rep.TupleCount,
		CheckpointsTaken: rep.CheckpointsTaken,
		Rollbacks:        rep.Rollbacks,
		SymbolicCalls:    rep.SymbolicInvocations,
		Vectors:          rep.Vectors,
	}, nil
}
