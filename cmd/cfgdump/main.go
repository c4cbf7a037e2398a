// Command cfgdump performs SymbFuzz's static analyses on a design and
// prints the control registers, the dependency equations (§4.4.2), the
// control-flow graph with checkpoint marking (§4.5), and Table 3-style
// statistics.
//
// Usage:
//
//	cfgdump -bench lc_ctrl
//	cfgdump -src design.sv -top mymodule -equations
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/elab"
)

func main() {
	var (
		bench  = flag.String("bench", "", "built-in benchmark name")
		srcF   = flag.String("src", "", "HDL source file")
		top    = flag.String("top", "", "top module (with -src)")
		eqns   = flag.Bool("equations", false, "print the dependency equations")
		nodes  = flag.Bool("nodes", false, "print every CFG node")
		dotOut = flag.String("dot", "", "write the clustered CFG as Graphviz to this file")
		maxN   = flag.Int("max-nodes", 4096, "node exploration bound")
		maxS   = flag.Int("max-succ", 32, "per-node successor bound")
		anal   = flag.Bool("analysis", false, "print dataflow analysis facts: levels, per-register cones, statically infeasible CFG targets")
	)
	flag.Parse()

	// Designs resolve exactly as campaign specs do (tracecheck and the
	// distributed coordinator share the table).
	spec := dist.CampaignSpec{Bench: *bench, Top: *top}
	if *srcF != "" {
		data, err := os.ReadFile(*srcF)
		if err != nil {
			fail(err)
		}
		spec.Source = string(data)
	}
	b, _, err := dist.ResolveSpec(spec)
	if err != nil {
		fail(err)
	}
	d, err := b.Elaborate()
	if err != nil {
		fail(err)
	}
	fmt.Printf("design %s: %d signals, %d processes, %d branches\n",
		b.Name, len(d.Signals), len(d.Procs), d.Branches)

	regs := cfg.ControlRegisters(d)
	fmt.Printf("\ncontrol registers (%d):\n", len(regs))
	for _, cr := range regs {
		kind := "comb"
		if cr.Sig.IsReg {
			kind = "flop"
		}
		fmt.Printf("  %-32s width=%-3d domain=%-6d %s\n", cr.Sig.Name, cr.Sig.Width, cr.Domain, kind)
	}
	fmt.Printf("node space (Eqn. 3): %d\n", cfg.NodeSpace(regs))

	m, err := core.Prepare(d, core.Config{
		CFG:            cfg.Options{MaxNodes: *maxN, MaxSuccessors: *maxS},
		DisablePruning: true,
	})
	if err != nil {
		fail(err)
	}
	g := m.Partition()
	fmt.Printf("dependency equations generated: %d\n", g.Tr.EqCount)
	if *eqns {
		fmt.Println("\nnext-state dependency equations:")
		for _, r := range g.Tr.Regs {
			if next, ok := g.Tr.Next[r.Index]; ok {
				fmt.Printf("  next(%s) = %s\n", r.Name, next)
			}
		}
	}

	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(g.Dot(b.Name)), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote Graphviz CFG to %s\n", *dotOut)
	}
	st := g.Stats()
	fmt.Printf("\nCFG: %d clusters, %d nodes, %d edges, %d checkpoints (fan-out >= 3)\n",
		len(g.Graphs), st.Nodes, st.Edges, st.Checkpoints)
	if *nodes {
		for gi, gg := range g.Graphs {
			fmt.Printf("cluster %d:\n", gi)
			for _, n := range gg.Nodes {
				mark := " "
				if gg.Checkpoints[n.ID] {
					mark = "*"
				}
				fmt.Printf("%s node %-4d out=%-3d in=%-3d key=%s\n",
					mark, n.ID, len(n.Out), len(n.In), n.Key)
			}
		}
	}
	if *anal {
		printAnalysis(d, g)
	}
}

// printAnalysis runs the IR-level dataflow pass and reports what the
// sliced solver path will exploit: combinational depth, the one-step
// cone of every cluster register, and the CFG target nodes whose
// register valuations the value-range lattice already excludes.
func printAnalysis(d *elab.Design, part *cfg.Partition) {
	f := analysis.Analyze(d)
	fmt.Printf("\ndataflow analysis: %d fixpoint iterations, %d combinational levels\n",
		f.Iterations, f.Dep.MaxLevel())
	fmt.Println("cluster register cones (one-step fan-in, cut at registers):")
	for gi, gg := range part.Graphs {
		for _, cr := range gg.Regs {
			cone := f.Dep.Cone(cr.Sig.Index)
			fmt.Printf("  cluster %d %-28s cone=%-4d frontier=%-4d value=%s\n",
				gi, cr.Sig.Name, len(cone), len(f.Dep.ConeInputs(cone)),
				f.SignalValue(cr.Sig.Index).String())
		}
	}
	total, infeasible := 0, 0
	for gi, gg := range part.Graphs {
		cnt := 0
		for _, n := range gg.Nodes {
			for idx, v := range n.Vals {
				if !f.MayHold(idx, v) {
					cnt++
					break
				}
			}
		}
		total += len(gg.Nodes)
		infeasible += cnt
		if cnt > 0 {
			fmt.Printf("  cluster %d: %d/%d nodes statically infeasible\n", gi, cnt, len(gg.Nodes))
		}
	}
	fmt.Printf("statically infeasible CFG targets: %d of %d nodes\n", infeasible, total)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cfgdump:", err)
	os.Exit(1)
}
