package core

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/cfg"
	"repro/internal/elab"
	"repro/internal/lint"
	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/uvm"
)

// Model is the static side of a campaign, Algorithm 1 lines 1–6: the
// transition relation, the clustered CFG explored from the post-reset
// valuation with the reset input pinned deasserted, and the lint
// reachability pruning. It depends only on the design and the CFG,
// ResetCycles and DisablePruning settings, never on properties or
// seeds, and it is read-only once built: any number of engines, in one
// process or concurrently, may run on one Model (NewFromModel).
type Model struct {
	d    *elab.Design
	part *cfg.Partition

	// pruned[gi][node] marks the nodes whose register valuations the
	// lint facts prove unreachable, and prunedOut[gi][node] lists the
	// node's out-edges into them (both nil when pruning is disabled).
	pruned        [][]bool
	prunedOut     [][][]int
	prunedTargets int

	// static renders the Config fields the model was built from; an
	// engine on the model must ask for the same ones.
	static string
}

// Prepare builds the static model of a design. It reads c.CFG,
// c.ResetCycles and c.DisablePruning, and c.SimBackend only to pick
// the simulator that runs the reset sequence (the backends reach the
// same post-reset state).
func Prepare(d *elab.Design, c Config) (*Model, error) {
	c = c.withDefaults()
	s, err := uvm.NewBackend(d, c.SimBackend)
	if err != nil {
		return nil, err
	}
	info := sim.DetectClockReset(d)
	if err := s.ApplyReset(info, c.ResetCycles); err != nil {
		return nil, err
	}
	return prepare(d, info, s, c)
}

// prepare builds the model from a simulator s that has just run the
// reset sequence detected as info.
func prepare(d *elab.Design, info sim.ResetInfo, s sim.DUV, c Config) (*Model, error) {
	tr, err := cfg.BuildTransition(d)
	if err != nil {
		return nil, err
	}
	// Pin the reset input deasserted during CFG construction so the
	// graph describes post-reset behaviour. The pin map is the model's
	// own: the caller's c.CFG.Pin is only read.
	opts := c.CFG
	opts.Pin = make(map[string]logic.BV, len(c.CFG.Pin)+1)
	maps.Copy(opts.Pin, c.CFG.Pin)
	if info.Reset >= 0 {
		name := d.Signals[info.Reset].Name
		if _, set := opts.Pin[name]; !set {
			v := logic.Ones(1)
			if !info.ActiveLow {
				v = logic.Zero(1)
			}
			opts.Pin[name] = v
		}
	}
	resetVals := map[int]logic.BV{}
	for _, cr := range cfg.ControlRegisters(d) {
		resetVals[cr.Sig.Index] = s.Get(cr.Sig.Index)
	}
	part, err := cfg.BuildPartition(d, tr, resetVals, opts)
	if err != nil {
		return nil, err
	}
	m := &Model{d: d, part: part, static: staticFields(c)}
	if !c.DisablePruning {
		m.markPruned(resetVals)
	}
	return m, nil
}

// Design returns the elaborated design the model was built from.
func (m *Model) Design() *elab.Design { return m.d }

// Partition returns the clustered static CFG. It is shared by every
// engine on the model and must not be modified.
func (m *Model) Partition() *cfg.Partition { return m.part }

// check reports whether an engine configured by c (defaults applied)
// may run on the model.
func (m *Model) check(c Config) error {
	if got := staticFields(c); got != m.static {
		return fmt.Errorf("core: engine config %s differs from the model's %s", got, m.static)
	}
	return nil
}

// staticFields renders the Config fields a model depends on (maps
// print in key order, so equal settings render equally).
func staticFields(c Config) string {
	return fmt.Sprintf("{CFG:%+v ResetCycles:%d DisablePruning:%t}", c.CFG, c.ResetCycles, c.DisablePruning)
}

// markPruned runs the lint reachability analysis (value-domain
// inference refined by SMT-proven dead arms) and marks every CFG node
// holding a register value outside its proven domain. Such nodes come
// from the transition relation's over-approximation — hold variables
// and unconstrained successor models — and no input sequence can reach
// them, so steering the solver toward them is wasted budget. The
// simulator's actual post-reset values are unioned into the domains
// first, and the reset node itself is never pruned.
func (m *Model) markPruned(resetVals map[int]logic.BV) {
	facts := lint.AnalyzeReachability(m.d)
	for idx, v := range resetVals {
		if cv, ok := canonUint64(v); ok && !facts.Allows(idx, cv) {
			facts.Domains[idx] = append(facts.Domains[idx], cv)
			sort.Slice(facts.Domains[idx], func(i, j int) bool {
				return facts.Domains[idx][i] < facts.Domains[idx][j]
			})
		}
	}
	m.pruned = make([][]bool, len(m.part.Graphs))
	m.prunedOut = make([][][]int, len(m.part.Graphs))
	for gi, g := range m.part.Graphs {
		m.pruned[gi] = make([]bool, len(g.Nodes))
		for _, n := range g.Nodes {
			if n.ID == 0 {
				continue // reset/root node stays targetable
			}
			for idx, v := range n.Vals {
				if cv, ok := canonUint64(v); ok && !facts.Allows(idx, cv) {
					m.pruned[gi][n.ID] = true
					m.prunedTargets++
					break
				}
			}
		}
		m.prunedOut[gi] = make([][]int, len(g.Nodes))
		for _, edge := range g.Edges {
			if m.pruned[gi][edge.To] {
				m.prunedOut[gi][edge.From] = append(m.prunedOut[gi][edge.From], edge.ID)
			}
		}
	}
}
