package cfg

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/logic"
	"repro/internal/smt"
)

// SliceInfo reports what cone-of-influence slicing did to one dispatch.
type SliceInfo struct {
	// FullVars is the variable count of the unsliced query for the same
	// dispatch; ConeVars is the count actually declared after partial
	// evaluation. FullVars-ConeVars is the per-dispatch saving.
	FullVars int
	ConeVars int
	// Infeasible reports that the target was refuted statically (the
	// folded constraint is the constant false, or the abstract value of
	// the destination excludes the wanted valuation) — no solver was run.
	Infeasible bool
}

// sliceState is the per-graph table backing solver queries, built once
// when the graph is: the destination terms (shared with the unsliced
// path), the fixed part of the unsliced query's variable set, so
// FullVars costs one map probe per context register instead of a term
// walk per dispatch, and the cluster's own register signals.
type sliceState struct {
	dst       map[int]*smt.Term
	fixed     map[string]bool
	inCluster map[int]bool
}

func (g *Graph) newSliceState() sliceState {
	st := sliceState{dst: g.destTerms(), fixed: map[string]bool{}, inCluster: map[int]bool{}}
	widths := map[string]int{}
	for _, cr := range g.Regs {
		st.inCluster[cr.Sig.Index] = true
		analysis.CollectVars(st.dst[cr.Sig.Index], widths)
		st.fixed[dstVar(cr.Sig)] = true
		if cr.Sig.IsReg {
			st.fixed[CurVar+cr.Sig.Name] = true
		}
	}
	for name := range widths {
		st.fixed[name] = true
	}
	for name := range g.opts.Pin {
		st.fixed[InVar+name] = true
	}
	return st
}

// CheckStep reports whether the FULL (unsliced) dependency equation
// admits the given input assignment for a cur -> want dispatch:
// unpinned inputs absent from inputs are zero-filled, exactly as plan
// application does. It is the differential oracle for sliced models —
// a plan solved over the cone must still check out here.
func (g *Graph) CheckStep(cur, want, context map[int]logic.BV, inputs map[string]logic.BV) bool {
	s := g.querySolver(cur, want, context)
	for _, in := range g.Design.InputSignals() {
		if _, pinned := g.opts.Pin[in.Name]; pinned {
			continue
		}
		v, ok := inputs[in.Name]
		if !ok {
			v = logic.Zero(in.Width)
		}
		s.Assert(smt.Eq(s.Var(InVar+in.Name, in.Width), ConstBV(v)))
	}
	return s.Solve() == smt.Sat
}

// SolveStepSliced is SolveStepStats with cone-of-influence slicing: the
// dispatch's concrete bindings (current cluster valuation, out-of-cluster
// context registers, pinned inputs) are folded into the destination
// terms through the solver's constant-folding constructors, so only the
// target's surviving cone is declared and bit-blasted. Folding is
// exactly semantics-preserving, so the sliced query is equisatisfiable
// with the unsliced one and any model extends to a full model with the
// absent inputs zero-filled (which is what plan application does).
// Targets refuted during folding — a constraint collapsing to constant
// false, or an abstract destination value excluding the wanted
// valuation — are reported infeasible without running the solver.
//
// Only names in the graph's fixed variable set are bound: every
// variable of every destination term is in it, so a context register
// outside it cannot occur in the folded query and is only counted
// toward FullVars.
func (g *Graph) SolveStepSliced(cur, want, context map[int]logic.BV, seed int64) (*StepPlan, smt.SolveStats, SliceInfo) {
	bind := map[string]*smt.Term{}
	for _, cr := range g.Regs {
		if !cr.Sig.IsReg {
			continue
		}
		v, ok := cur[cr.Sig.Index]
		if !ok {
			v = logic.Zero(cr.Sig.Width)
		}
		bind[CurVar+cr.Sig.Name] = ConstBV(v)
	}
	si := SliceInfo{FullVars: len(g.slice.fixed)}
	for idx, v := range context {
		if g.slice.inCluster[idx] || !g.Design.Signals[idx].IsReg {
			continue
		}
		name := CurVar + g.Design.Signals[idx].Name
		if !g.slice.fixed[name] {
			si.FullVars++
			continue
		}
		bind[name] = ConstBV(v)
	}
	for name, v := range g.opts.Pin {
		bind[InVar+name] = ConstBV(v)
	}

	memo := map[*smt.Term]*smt.Term{}
	absMemo := map[*smt.Term]analysis.Value{}
	var asserts []*smt.Term
	for _, cr := range g.Regs {
		v, ok := want[cr.Sig.Index]
		if !ok {
			continue
		}
		folded := analysis.FoldTerm(g.slice.dst[cr.Sig.Index], bind, memo)
		a := smt.Eq(folded, ConstBV(v))
		switch {
		case analysis.IsConstTrue(a):
			continue
		case analysis.IsConstFalse(a):
			si.Infeasible = true
		default:
			if c, ok := analysis.EvalTerm(a, analysis.TopTermEnv, absMemo).IsConst(); ok && c == 0 {
				si.Infeasible = true
			}
			asserts = append(asserts, a)
		}
	}
	cone := map[string]int{}
	for _, a := range asserts {
		analysis.CollectVars(a, cone)
	}
	si.ConeVars = len(cone)
	if si.Infeasible {
		return nil, smt.SolveStats{Outcome: smt.Unsat}, si
	}

	s := smt.NewSolver()
	if seed != 0 {
		s.SetRand(newRand(seed))
	}
	// Declare the cone in sorted name order: variable numbering fixes
	// which of several satisfying models a seeded solve returns, so it
	// must not depend on map iteration.
	names := make([]string, 0, len(cone))
	for name := range cone {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Var(name, cone[name])
	}
	for _, a := range asserts {
		s.Assert(a)
	}
	if s.Solve() != smt.Sat {
		return nil, s.LastStats(), si
	}
	return planFrom(s), s.LastStats(), si
}
