// Command benchtab regenerates the paper's evaluation tables and
// figures (§5) at a configurable budget and prints them as text, and
// runs the repo's record experiments, each of which writes one
// BENCH_<exp>.json performance record stamped with the command that
// made it.
//
// Usage:
//
//	benchtab -exp table1
//	benchtab -exp table2 -budget 60000 -runs 4
//	benchtab -exp fig4 -budget 20000
//	benchtab -exp all
//	benchtab -exp prof                      # writes BENCH_prof.json
//	benchtab -exp sim -out BENCH_sim_new.json
//
// -diff compares two bench records of the same schema as a
// perf-regression gate (warn past 10%, exit 1 past 25%):
//
//	benchtab -diff BENCH_prof.json -with BENCH_prof_new.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/eval"
)

// experiment is one record experiment. Each times campaigns against
// each other, so none runs under -exp all. A timed experiment
// interleaves two arms (minPair) and takes -runs as its runs per arm;
// 0 means defaultRuns.
type experiment struct {
	name  string
	run   func(seed int64, runs int, w io.Writer) (record, error)
	timed bool
}

var experiments = []experiment{
	{"par", runPar, false},
	{"dist", runDist, false},
	{"fleet", runFleet, false},
	{"flight", runFlight, true},
	{"prof", runProf, true},
	{"watch", runWatch, true},
	{"sim", runSim, true},
	{"slice", runSlice, false},
}

const defaultRuns = 3

func (e experiment) schema() string { return "symbfuzz-bench-" + e.name + "/v1" }

// exec runs the experiment and writes its record to out (default
// BENCH_<name>.json). A record that fails its gate is still written,
// so the numbers that failed it can be read.
func (e experiment) exec(seed int64, runs int, out string, w io.Writer) error {
	switch {
	case !e.timed && runs != 0:
		return fmt.Errorf("-runs does not apply: %s has no interleaved arms", e.name)
	case runs == 0:
		runs = defaultRuns
	}
	if out == "" {
		out = "BENCH_" + e.name + ".json"
	}
	rec, err := e.run(seed, runs, w)
	if rec != nil {
		if werr := writeRecord(out, e.schema(), rec); werr != nil {
			return werr
		}
	}
	return err
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1|table2|table3|fig4|sec54|scalability|all, or a record experiment (par|dist|fleet|flight|prof|watch|sim|slice), which never runs under all")
		budget   = flag.Uint64("budget", 0, "vector budget per IP run (0 = defaults)")
		soc      = flag.Uint64("soc-budget", 0, "vector budget for SoC curves")
		runs     = flag.Int("runs", 0, "runs averaged (figure 4, table 2), or interleaved runs per arm (flight, prof, watch, sim; 0 = 3)")
		seed     = flag.Int64("seed", 1, "base seed")
		out      = flag.String("out", "", "record output path for a record experiment (default BENCH_<exp>.json)")
		diffBase = flag.String("diff", "", "baseline bench record for the perf-regression gate")
		diffWith = flag.String("with", "", "candidate bench record to compare against -diff")
	)
	flag.Parse()

	if *diffBase != "" || *diffWith != "" {
		if *diffBase == "" || *diffWith == "" {
			fmt.Fprintln(os.Stderr, "benchtab: -diff and -with must both be set")
			os.Exit(2)
		}
		failed, err := runDiff(*diffBase, *diffWith, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab: diff:", err)
			os.Exit(2)
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	for _, e := range experiments {
		if e.name == *exp {
			if err := e.exec(*seed, *runs, *out, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", e.name, err)
				os.Exit(1)
			}
			return
		}
	}

	c := eval.Config{
		BudgetIP:  *budget,
		BudgetSoC: *soc,
		Runs:      *runs,
		Seed:      *seed,
		Interval:  100,
		Threshold: 2,
	}
	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table1", func() error {
		rows, err := eval.RunTable1(c)
		if err != nil {
			return err
		}
		eval.WriteTable1(os.Stdout, rows)
		return nil
	})
	run("table2", func() error {
		rows, err := eval.RunTable2(c)
		if err != nil {
			return err
		}
		eval.WriteTable2(os.Stdout, rows)
		return nil
	})
	run("table3", func() error {
		rows, err := eval.RunTable3(c)
		if err != nil {
			return err
		}
		eval.WriteTable3(os.Stdout, rows)
		return nil
	})
	run("fig4", func() error {
		fig, err := eval.RunFigure4(c)
		if err != nil {
			return err
		}
		eval.WriteFigure4a(os.Stdout, fig)
		fmt.Println()
		eval.WriteFigure4b(os.Stdout, fig)
		fmt.Println(eval.Summary(fig))
		return nil
	})
	run("sec54", func() error {
		rows, err := eval.RunSection54(c)
		if err != nil {
			return err
		}
		eval.WriteSection54(os.Stdout, rows)
		return nil
	})
	run("scalability", func() error {
		s, err := eval.RunScalability(c)
		if err != nil {
			return err
		}
		eval.WriteScalability(os.Stdout, s)
		return nil
	})
}
