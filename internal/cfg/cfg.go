package cfg

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/smt"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ControlReg is a control register: a state-holding or derived signal
// that steers branch decisions (§4.4.1).
type ControlReg struct {
	Sig *elab.Signal
	// Domain is the number of legal encodings of the register (n_j in
	// Eqn. 3): the enum member count for enum-typed signals, otherwise
	// 2^width (saturated at 2^20 for wide registers).
	Domain uint64
}

// maxCtrlRegWidth bounds the registers enumerated as CFG dimensions.
// Wider registers (big counters, data words compared in predicates)
// cannot have their value space enumerated (§4.6's discussion of wide
// predicates like r1 == 0 on a 32-bit register); their branch outcomes
// are still covered through branch-arm interaction tuples.
const maxCtrlRegWidth = 8

// ControlRegisters identifies the design's control registers: every
// non-input signal of bounded width read by an instrumented branch
// condition.
func ControlRegisters(d *elab.Design) []ControlReg {
	set := map[int]bool{}
	for _, bi := range d.BranchInfo {
		for _, s := range bi.CondSignals {
			if d.Signals[s].Kind != elab.SigInput && d.Signals[s].Width <= maxCtrlRegWidth {
				set[s] = true
			}
		}
	}
	idxs := make([]int, 0, len(set))
	for k := range set {
		idxs = append(idxs, k)
	}
	sort.Ints(idxs)
	out := make([]ControlReg, 0, len(idxs))
	for _, i := range idxs {
		sig := d.Signals[i]
		var dom uint64
		switch {
		case sig.EnumTy != "" && len(sig.EnumNames) > 0:
			dom = uint64(len(sig.EnumNames))
		case sig.Width >= 20:
			dom = 1 << 20
		default:
			dom = 1 << uint(sig.Width)
		}
		out = append(out, ControlReg{Sig: sig, Domain: dom})
	}
	return out
}

// NodeSpace is the total population of distinct CFG nodes (Eqn. 3):
// the product of the control registers' domains, saturating at 2^62.
func NodeSpace(regs []ControlReg) uint64 {
	total := uint64(1)
	for _, r := range regs {
		if r.Domain == 0 {
			continue
		}
		if total > (uint64(1)<<62)/r.Domain {
			return uint64(1) << 62
		}
		total *= r.Domain
	}
	return total
}

// Node is one CFG node: a valuation of the control registers.
type Node struct {
	ID   int
	Key  string
	Vals map[int]logic.BV // by signal index
	Out  []int            // edge IDs
	In   []int
}

// Edge is a transition between nodes; IDs are unique (§4.6).
type Edge struct {
	ID   int
	From int
	To   int
}

// Options configures CFG construction.
type Options struct {
	// MaxNodes bounds exploration (default 4096).
	MaxNodes int
	// MaxSuccessors bounds per-node successor enumeration (default 32).
	MaxSuccessors int
	// CheckpointFanout marks nodes with at least this many outgoing
	// edges as checkpoints (default 3, per §4.5).
	CheckpointFanout int
	// Pin fixes input signals (by name) to constants during
	// construction, e.g. keeping reset deasserted.
	Pin map[string]logic.BV
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 4096
	}
	if o.MaxSuccessors == 0 {
		o.MaxSuccessors = 32
	}
	if o.CheckpointFanout == 0 {
		o.CheckpointFanout = 3
	}
	return o
}

// Graph is the control-flow graph of §4.6: nodes are control-register
// valuations, edges are one-cycle transitions, checkpoints are nodes
// with fan-out >= the threshold.
type Graph struct {
	Design      *elab.Design
	Tr          *Transition
	Regs        []ControlReg
	Nodes       []*Node
	Edges       []Edge
	ByKey       map[string]int
	Checkpoints map[int]bool
	// Space is the static node population (Eqn. 3).
	Space uint64
	// Truncated reports whether exploration hit a bound.
	Truncated bool
	// Constraints counts the solver constraints generated during
	// construction (Table 3's last column). Queries do not count, so a
	// built graph is read-only and can back concurrent engines.
	Constraints int
	opts        Options
	slice       sliceState
}

// canonical zeroes unknown bits so node keys are well defined.
func canonical(v logic.BV) logic.BV {
	if v.IsFullyDefined() {
		return v
	}
	out := logic.Zero(v.Width())
	for i := 0; i < v.Width(); i++ {
		if v.Bit(i) == logic.L1 {
			out = out.WithBit(i, logic.L1)
		}
	}
	return out
}

func nodeKey(regs []ControlReg, vals map[int]logic.BV) string {
	var sb strings.Builder
	for _, r := range regs {
		v, ok := vals[r.Sig.Index]
		if !ok {
			v = logic.Zero(r.Sig.Width)
		}
		sb.WriteString(canonical(v).BitString())
		sb.WriteByte('|')
	}
	return sb.String()
}

// dstVar names the solver variable carrying a successor register value.
func dstVar(sig *elab.Signal) string { return "dst." + sig.Name }

// substitute rewrites cur.<reg> variables to the register's next-state
// term, producing the post-edge view of a combinational control signal:
// after the clock edge the combinational logic re-settles with the SAME
// input vector but the NEW register values, which is exactly what the
// coverage monitor samples.
func substitute(t *smt.Term, rename map[string]*smt.Term, memo map[*smt.Term]*smt.Term) *smt.Term {
	if r, ok := memo[t]; ok {
		return r
	}
	var out *smt.Term
	if t.Kind == smt.KVar {
		if r, ok := rename[t.Name]; ok {
			out = r
		} else {
			out = t
		}
	} else if len(t.Args) == 0 {
		out = t
	} else {
		args := make([]*smt.Term, len(t.Args))
		changed := false
		for i, a := range t.Args {
			args[i] = substitute(a, rename, memo)
			if args[i] != a {
				changed = true
			}
		}
		if !changed {
			out = t
		} else {
			cp := *t
			cp.Args = args
			out = &cp
		}
	}
	memo[t] = out
	return out
}

// Clusters partitions the control registers into interacting groups:
// registers read by the same branch condition, or referenced in each
// other's next-state dependency equations, belong to the same cluster
// (one cluster per FSM/counter complex). A multi-IP SoC then gets one
// CFG per cluster, so the total node population is the SUM of the local
// state spaces rather than their product — which is how the paper's
// OpenTitan CFG stays at ~1.4k nodes (§5.5.2).
func Clusters(d *elab.Design, tr *Transition) [][]ControlReg {
	regs := ControlRegisters(d)
	if len(regs) == 0 {
		return nil
	}
	index := map[int]int{} // signal index -> position in regs
	parent := make([]int, len(regs))
	for i, r := range regs {
		index[r.Sig.Index] = i
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, bi := range d.BranchInfo {
		first := -1
		for _, s := range bi.CondSignals {
			i, ok := index[s]
			if !ok {
				continue
			}
			if first == -1 {
				first = i
			} else {
				union(first, i)
			}
		}
	}
	// Transition-level coupling: if register B's next-state (or comb
	// control signal B's value) depends on register A, solving for B
	// requires A's state, so they explore together.
	if tr != nil {
		byName := map[string]int{} // "cur.<name>" -> position in regs
		for i, r := range regs {
			byName[CurVar+r.Sig.Name] = i
		}
		couple := func(i int, term *smt.Term) {
			for _, v := range term.Vars() {
				if j, ok := byName[v]; ok && j != i {
					union(i, j)
				}
			}
		}
		for i, r := range regs {
			if next, ok := tr.Next[r.Sig.Index]; ok {
				couple(i, next)
			}
			if comb, ok := tr.Comb[r.Sig.Index]; ok && !r.Sig.IsReg {
				couple(i, comb)
			}
		}
	}
	groups := map[int][]ControlReg{}
	var order []int
	for i, r := range regs {
		root := find(i)
		if _, seen := groups[root]; !seen {
			order = append(order, root)
		}
		groups[root] = append(groups[root], r)
	}
	out := make([][]ControlReg, 0, len(order))
	for _, root := range order {
		out = append(out, groups[root])
	}
	return out
}

// Build constructs the CFG over ALL control registers by breadth-first
// symbolic exploration from the given reset valuation (obtained by
// simulating the reset sequence). For multi-FSM designs prefer
// BuildPartition, which explores each cluster separately.
func Build(d *elab.Design, tr *Transition, reset map[int]logic.BV, opts Options) (*Graph, error) {
	return BuildForRegs(d, tr, ControlRegisters(d), reset, opts)
}

// BuildForRegs constructs the CFG restricted to the given control
// registers.
func BuildForRegs(d *elab.Design, tr *Transition, regs []ControlReg, reset map[int]logic.BV, opts Options) (*Graph, error) {
	opts = opts.withDefaults()
	g := &Graph{
		Design:      d,
		Tr:          tr,
		Regs:        regs,
		ByKey:       map[string]int{},
		Checkpoints: map[int]bool{},
		Space:       NodeSpace(regs),
		opts:        opts,
	}
	g.slice = g.newSliceState()
	if len(regs) == 0 {
		return g, nil
	}
	root := g.addNode(reset)
	queue := []int{root}
	for len(queue) > 0 {
		nid := queue[0]
		queue = queue[1:]
		if len(g.Nodes) >= opts.MaxNodes {
			g.Truncated = true
			break
		}
		succs, truncated, err := g.successors(g.Nodes[nid])
		if err != nil {
			return nil, err
		}
		if truncated {
			g.Truncated = true
		}
		for _, sv := range succs {
			key := nodeKey(regs, sv)
			to, seen := g.ByKey[key]
			if !seen {
				if len(g.Nodes) >= opts.MaxNodes {
					g.Truncated = true
					continue
				}
				to = g.addNode(sv)
				queue = append(queue, to)
			}
			g.addEdge(nid, to)
		}
	}
	for _, n := range g.Nodes {
		if len(n.Out) >= opts.CheckpointFanout {
			g.Checkpoints[n.ID] = true
		}
	}
	return g, nil
}

func (g *Graph) addNode(vals map[int]logic.BV) int {
	clean := map[int]logic.BV{}
	for _, r := range g.Regs {
		v, ok := vals[r.Sig.Index]
		if !ok {
			v = logic.Zero(r.Sig.Width)
		}
		clean[r.Sig.Index] = canonical(v)
	}
	n := &Node{ID: len(g.Nodes), Key: nodeKey(g.Regs, clean), Vals: clean}
	g.Nodes = append(g.Nodes, n)
	g.ByKey[n.Key] = n.ID
	return n.ID
}

func (g *Graph) addEdge(from, to int) {
	// De-duplicate parallel edges.
	for _, eid := range g.Nodes[from].Out {
		if g.Edges[eid].To == to {
			return
		}
	}
	e := Edge{ID: len(g.Edges), From: from, To: to}
	g.Edges = append(g.Edges, e)
	g.Nodes[from].Out = append(g.Nodes[from].Out, e.ID)
	g.Nodes[to].In = append(g.Nodes[to].In, e.ID)
}

// destTerms builds, for every control register, the term giving its
// value at the destination node (sequential: next-state; combinational:
// re-evaluated under second-step inputs and next-state registers).
func (g *Graph) destTerms() map[int]*smt.Term {
	rename := map[string]*smt.Term{}
	for _, r := range g.Tr.Regs {
		if next, ok := g.Tr.Next[r.Index]; ok {
			rename[CurVar+r.Name] = next
		}
	}
	memo := map[*smt.Term]*smt.Term{}
	out := map[int]*smt.Term{}
	for _, cr := range g.Regs {
		idx := cr.Sig.Index
		if cr.Sig.IsReg {
			if next, ok := g.Tr.Next[idx]; ok {
				out[idx] = next
			} else {
				out[idx] = smt.Var(CurVar+cr.Sig.Name, cr.Sig.Width)
			}
			continue
		}
		comb, ok := g.Tr.Comb[idx]
		if !ok {
			out[idx] = smt.Var(HoldVar+cr.Sig.Name, cr.Sig.Width)
			continue
		}
		out[idx] = substitute(comb, rename, memo)
	}
	return out
}

// newSolverFor prepares a solver with the node's register valuation
// asserted and the destination variables defined, and returns the
// number of constraints it asserted.
func (g *Graph) newSolverFor(n *Node) (*smt.Solver, int) {
	s := smt.NewSolver()
	asserted := 0
	for _, cr := range g.Regs {
		term := g.slice.dst[cr.Sig.Index]
		DeclareVars(s, term)
		dv := s.Var(dstVar(cr.Sig), cr.Sig.Width)
		s.Assert(smt.Eq(dv, term))
		asserted++
		// Constrain the current state for sequential control registers.
		if cr.Sig.IsReg {
			cv := s.Var(CurVar+cr.Sig.Name, cr.Sig.Width)
			s.Assert(smt.Eq(cv, ConstBV(n.Vals[cr.Sig.Index])))
			asserted++
		}
	}
	// Pin requested inputs, in name order so the query is the same on
	// every run.
	pins := make([]string, 0, len(g.opts.Pin))
	for name := range g.opts.Pin {
		pins = append(pins, name)
	}
	sort.Strings(pins)
	for _, name := range pins {
		v := g.opts.Pin[name]
		pv := s.Var(InVar+name, v.Width())
		s.Assert(smt.Eq(pv, ConstBV(v)))
		asserted++
	}
	return s, asserted
}

// successors enumerates the distinct destination valuations reachable
// from node n in one step.
func (g *Graph) successors(n *Node) ([]map[int]logic.BV, bool, error) {
	s, asserted := g.newSolverFor(n)
	g.Constraints += asserted
	over := make([]string, 0, len(g.Regs))
	for _, cr := range g.Regs {
		over = append(over, dstVar(cr.Sig))
	}
	models := s.SolveN(g.opts.MaxSuccessors+1, over)
	truncated := false
	if len(models) > g.opts.MaxSuccessors {
		models = models[:g.opts.MaxSuccessors]
		truncated = true
	}
	out := make([]map[int]logic.BV, 0, len(models))
	for _, m := range models {
		vals := map[int]logic.BV{}
		for _, cr := range g.Regs {
			vals[cr.Sig.Index] = m[dstVar(cr.Sig)]
		}
		out = append(out, vals)
	}
	return out, truncated, nil
}

// StepPlan is a solved input assignment that steers the design toward a
// target control valuation in one applied vector: the clock edge updates
// the registers and the combinational control signals re-settle under
// the same inputs.
type StepPlan struct {
	Inputs map[string]logic.BV
}

// SolveStep finds input vectors that move the design from the current
// register valuation to the wanted control valuation (§4.7–4.8). want
// may constrain any subset of the graph's control registers. context
// optionally pins OTHER sequential registers (outside this graph's
// cluster) to their concrete simulator values — the paper's
// "substitutes concrete register values" (§3) — which makes plans exact
// on multi-cluster designs. Returns nil when no such input exists.
func (g *Graph) SolveStep(cur, want, context map[int]logic.BV, seed int64) *StepPlan {
	plan, _ := g.SolveStepStats(cur, want, context, seed)
	return plan
}

// SolveStepStats is SolveStep plus the dispatch's solver statistics
// (conflicts, decisions, propagations, formula size, bit-blast and CDCL
// wall time), which the engine surfaces through the telemetry layer and
// the campaign report.
func (g *Graph) SolveStepStats(cur, want, context map[int]logic.BV, seed int64) (*StepPlan, smt.SolveStats) {
	s := g.querySolver(cur, want, context)
	if seed != 0 {
		s.SetRand(newRand(seed))
	}
	if s.Solve() != smt.Sat {
		return nil, s.LastStats()
	}
	return planFrom(s), s.LastStats()
}

// querySolver prepares the unsliced query of a cur -> want dispatch:
// the cluster valuation (unknown bits and absent registers read as 0)
// and destination definitions, the out-of-cluster context registers,
// and the wanted destination values. Context registers are pinned in
// sorted index order: assertion order fixes the solver's variable
// numbering, and with it which of several satisfying models a seeded
// solve returns — map order here would make the whole campaign
// trajectory run-to-run nondeterministic.
func (g *Graph) querySolver(cur, want, context map[int]logic.BV) *smt.Solver {
	node := &Node{Vals: map[int]logic.BV{}}
	for _, cr := range g.Regs {
		v, ok := cur[cr.Sig.Index]
		if !ok {
			v = logic.Zero(cr.Sig.Width)
		}
		node.Vals[cr.Sig.Index] = canonical(v)
	}
	s, _ := g.newSolverFor(node)
	ctxIdx := make([]int, 0, len(context))
	for idx := range context {
		if !g.slice.inCluster[idx] && g.Design.Signals[idx].IsReg {
			ctxIdx = append(ctxIdx, idx)
		}
	}
	sort.Ints(ctxIdx)
	for _, idx := range ctxIdx {
		sig := g.Design.Signals[idx]
		s.Assert(smt.Eq(s.Var(CurVar+sig.Name, sig.Width), ConstBV(context[idx])))
	}
	for _, cr := range g.Regs {
		if v, ok := want[cr.Sig.Index]; ok {
			s.Assert(smt.Eq(s.Var(dstVar(cr.Sig), cr.Sig.Width), ConstBV(v)))
		}
	}
	return s
}

// planFrom reads a satisfied solver's input assignment as a plan.
func planFrom(s *smt.Solver) *StepPlan {
	plan := &StepPlan{Inputs: map[string]logic.BV{}}
	for name, v := range s.Model() {
		if strings.HasPrefix(name, InVar) {
			plan.Inputs[name[len(InVar):]] = v
		}
	}
	return plan
}

// NodeOf returns the node ID matching the given control valuation, or -1.
func (g *Graph) NodeOf(vals map[int]logic.BV) int {
	key := nodeKey(g.Regs, vals)
	if id, ok := g.ByKey[key]; ok {
		return id
	}
	return -1
}

// NearestCheckpoint walks backwards from node id to the closest
// checkpoint (including id itself); -1 when none is reachable.
func (g *Graph) NearestCheckpoint(id int) int {
	if id < 0 || id >= len(g.Nodes) {
		return -1
	}
	visited := map[int]bool{id: true}
	queue := []int{id}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if g.Checkpoints[n] {
			return n
		}
		for _, eid := range g.Nodes[n].In {
			from := g.Edges[eid].From
			if !visited[from] {
				visited[from] = true
				queue = append(queue, from)
			}
		}
	}
	return -1
}

// UncoveredFrom returns the edges out of node id not present in covered.
func (g *Graph) UncoveredFrom(id int, covered map[int]bool) []Edge {
	var out []Edge
	if id < 0 || id >= len(g.Nodes) {
		return nil
	}
	for _, eid := range g.Nodes[id].Out {
		if !covered[eid] {
			out = append(out, g.Edges[eid])
		}
	}
	return out
}

// Stats summarizes the graph for Table 3.
type Stats struct {
	Nodes       int
	Edges       int
	Checkpoints int
	DepEqns     int
	Constraints int
	Space       uint64
}

// Stats returns the graph's summary statistics.
func (g *Graph) Stats() Stats {
	return Stats{
		Nodes:       len(g.Nodes),
		Edges:       len(g.Edges),
		Checkpoints: len(g.Checkpoints),
		DepEqns:     g.Tr.EqCount,
		Constraints: g.Constraints,
		Space:       g.Space,
	}
}

// String renders a compact description.
func (g *Graph) String() string {
	st := g.Stats()
	return fmt.Sprintf("cfg{regs=%d nodes=%d edges=%d checkpoints=%d space=%d}",
		len(g.Regs), st.Nodes, st.Edges, st.Checkpoints, st.Space)
}
