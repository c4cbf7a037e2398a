// Package props implements the SVA-style security-property engine of
// §4.9: properties are boolean expressions over design signals with
// temporal helpers ($past, $stable, $isunknown) and implication (|->),
// sampled every clock cycle by a checker bound to the simulator (the
// UVM monitor role). A property fires a Violation when it evaluates to
// a known 0; unknown (X) results never fire, matching assertion
// semantics in four-state simulation.
package props

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/logic"
	"repro/internal/sim"
)

// Ctx supplies signal values to property evaluation.
type Ctx interface {
	// Val returns the current sampled value of a signal.
	Val(name string) logic.BV
	// PastVal returns the value n cycles ago (X before enough history).
	PastVal(name string, n int) logic.BV
	// Cycle is the current cycle number.
	Cycle() uint64
}

// Expr is a property expression node.
type Expr interface {
	Eval(c Ctx) logic.BV
	// Signals appends the signal names the expression reads.
	Signals(set map[string]int)
	String() string
}

// ---- leaves ----

type sigExpr struct{ name string }

// Sig references a signal by hierarchical name.
func Sig(name string) Expr { return sigExpr{name} }

func (e sigExpr) Eval(c Ctx) logic.BV        { return c.Val(e.name) }
func (e sigExpr) Signals(set map[string]int) { set[e.name] = max(set[e.name], 0) }
func (e sigExpr) String() string             { return e.name }

type constExpr struct{ v logic.BV }

// Const wraps a literal value.
func Const(v logic.BV) Expr { return constExpr{v} }

// U builds a width-bit unsigned constant.
func U(width int, v uint64) Expr { return constExpr{logic.FromUint64(width, v)} }

// B builds a 1-bit constant from a bool.
func B(v bool) Expr {
	if v {
		return constExpr{logic.Ones(1)}
	}
	return constExpr{logic.Zero(1)}
}

func (e constExpr) Eval(Ctx) logic.BV      { return e.v }
func (e constExpr) Signals(map[string]int) {}
func (e constExpr) String() string         { return e.v.String() }

// ---- temporal ----

type pastExpr struct {
	name string
	n    int
}

// Past is $past(signal, n): the signal's value n cycles earlier.
func Past(name string, n int) Expr {
	if n <= 0 {
		n = 1
	}
	return pastExpr{name, n}
}

func (e pastExpr) Eval(c Ctx) logic.BV { return c.PastVal(e.name, e.n) }
func (e pastExpr) Signals(set map[string]int) {
	set[e.name] = max(set[e.name], e.n)
}
func (e pastExpr) String() string { return fmt.Sprintf("$past(%s,%d)", e.name, e.n) }

type stableExpr struct{ name string }

// Stable is $stable(signal): current value case-equals the previous one.
func Stable(name string) Expr { return stableExpr{name} }

func (e stableExpr) Eval(c Ctx) logic.BV {
	if c.Val(e.name).Eq4(c.PastVal(e.name, 1)) {
		return logic.Ones(1)
	}
	return logic.Zero(1)
}
func (e stableExpr) Signals(set map[string]int) { set[e.name] = max(set[e.name], 1) }
func (e stableExpr) String() string             { return fmt.Sprintf("$stable(%s)", e.name) }

type isUnknownExpr struct{ x Expr }

// IsUnknown is $isunknown(e): 1 when any bit is X or Z.
func IsUnknown(x Expr) Expr { return isUnknownExpr{x} }

func (e isUnknownExpr) Eval(c Ctx) logic.BV {
	if e.x.Eval(c).HasUnknown() {
		return logic.Ones(1)
	}
	return logic.Zero(1)
}
func (e isUnknownExpr) Signals(set map[string]int) { e.x.Signals(set) }
func (e isUnknownExpr) String() string             { return fmt.Sprintf("$isunknown(%s)", e.x) }

// ---- operators ----

type binExpr struct {
	op   string
	x, y Expr
}

func bin(op string, x, y Expr) Expr { return binExpr{op, x, y} }

// Eq is x == y (widths are equalized by zero extension).
func Eq(x, y Expr) Expr { return bin("==", x, y) }

// Ne is x != y.
func Ne(x, y Expr) Expr { return bin("!=", x, y) }

// Lt is unsigned x < y.
func Lt(x, y Expr) Expr { return bin("<", x, y) }

// Le is unsigned x <= y.
func Le(x, y Expr) Expr { return bin("<=", x, y) }

// And is logical conjunction.
func And(x, y Expr) Expr { return bin("&&", x, y) }

// Or is logical disjunction.
func Or(x, y Expr) Expr { return bin("||", x, y) }

// BAnd is bitwise conjunction.
func BAnd(x, y Expr) Expr { return bin("&", x, y) }

// BOr is bitwise disjunction.
func BOr(x, y Expr) Expr { return bin("|", x, y) }

// BXor is bitwise exclusive-or.
func BXor(x, y Expr) Expr { return bin("^", x, y) }

// Add is modular addition.
func Add(x, y Expr) Expr { return bin("+", x, y) }

// Sub is modular subtraction.
func Sub(x, y Expr) Expr { return bin("-", x, y) }

func equalize(a, b logic.BV) (logic.BV, logic.BV) {
	w := max(a.Width(), b.Width())
	return a.Resize(w), b.Resize(w)
}

func (e binExpr) Eval(c Ctx) logic.BV {
	a, b := e.x.Eval(c), e.y.Eval(c)
	switch e.op {
	case "&&":
		return a.LogicalAnd(b)
	case "||":
		return a.LogicalOr(b)
	}
	a, b = equalize(a, b)
	switch e.op {
	case "==":
		return a.Eq(b)
	case "!=":
		return a.Neq(b)
	case "<":
		return a.Lt(b)
	case "<=":
		return a.Le(b)
	case "&":
		return a.And(b)
	case "|":
		return a.Or(b)
	case "^":
		return a.Xor(b)
	case "+":
		return a.Add(b)
	case "-":
		return a.Sub(b)
	}
	panic("props: unknown operator " + e.op)
}
func (e binExpr) Signals(set map[string]int) {
	e.x.Signals(set)
	e.y.Signals(set)
}
func (e binExpr) String() string { return fmt.Sprintf("(%s %s %s)", e.x, e.op, e.y) }

type notExpr struct{ x Expr }

// Not is logical negation.
func Not(x Expr) Expr { return notExpr{x} }

func (e notExpr) Eval(c Ctx) logic.BV        { return e.x.Eval(c).LogicalNot() }
func (e notExpr) Signals(set map[string]int) { e.x.Signals(set) }
func (e notExpr) String() string             { return fmt.Sprintf("!%s", e.x) }

type redOrExpr struct{ x Expr }

// RedOr is the |x reduction.
func RedOr(x Expr) Expr { return redOrExpr{x} }

func (e redOrExpr) Eval(c Ctx) logic.BV        { return e.x.Eval(c).ReduceOr() }
func (e redOrExpr) Signals(set map[string]int) { e.x.Signals(set) }
func (e redOrExpr) String() string             { return fmt.Sprintf("(|%s)", e.x) }

type sliceExpr struct {
	x      Expr
	hi, lo int
}

// Slice selects bits [hi:lo] of an expression.
func Slice(x Expr, hi, lo int) Expr { return sliceExpr{x, hi, lo} }

// Index selects bit [i].
func Index(x Expr, i int) Expr { return sliceExpr{x, i, i} }

func (e sliceExpr) Eval(c Ctx) logic.BV        { return e.x.Eval(c).Extract(e.hi, e.lo) }
func (e sliceExpr) Signals(set map[string]int) { e.x.Signals(set) }
func (e sliceExpr) String() string             { return fmt.Sprintf("%s[%d:%d]", e.x, e.hi, e.lo) }

type concatExpr struct{ parts []Expr }

// Concat joins expressions, first part in the MSBs (Verilog {a, b}).
func Concat(parts ...Expr) Expr { return concatExpr{parts} }

func (e concatExpr) Eval(c Ctx) logic.BV {
	out := e.parts[0].Eval(c)
	for _, p := range e.parts[1:] {
		out = out.Concat(p.Eval(c))
	}
	return out
}
func (e concatExpr) Signals(set map[string]int) {
	for _, p := range e.parts {
		p.Signals(set)
	}
}
func (e concatExpr) String() string {
	s := "{"
	for i, p := range e.parts {
		if i > 0 {
			s += ", "
		}
		s += p.String()
	}
	return s + "}"
}

type impliesExpr struct{ a, c Expr }

// Implies is the overlapping implication a |-> c: holds unless a is a
// known 1 and c is a known 0.
func Implies(a, c Expr) Expr { return impliesExpr{a, c} }

func (e impliesExpr) Eval(c Ctx) logic.BV {
	av := e.a.Eval(c).Truthy()
	if av != logic.L1 {
		return logic.Ones(1) // vacuous (or unknown antecedent)
	}
	cv := e.c.Eval(c).Truthy()
	switch cv {
	case logic.L0:
		return logic.Zero(1)
	case logic.L1:
		return logic.Ones(1)
	default:
		return logic.X(1)
	}
}
func (e impliesExpr) Signals(set map[string]int) {
	e.a.Signals(set)
	e.c.Signals(set)
}
func (e impliesExpr) String() string { return fmt.Sprintf("(%s |-> %s)", e.a, e.c) }

// IsInside is $isinside: x equals any of the candidates.
func IsInside(x Expr, candidates ...Expr) Expr {
	out := B(false)
	for _, c := range candidates {
		out = Or(out, Eq(x, c))
	}
	return out
}

// ---- property and checker ----

// Property is a named invariant checked every cycle; it fails when the
// expression evaluates to a known 0 while DisableIff (if set) is not 1.
type Property struct {
	Name       string
	Expr       Expr
	DisableIff Expr   // typically reset-asserted
	CWE        string // CWE class for reporting (Table 1)
	// Tags describe how a violation of this property manifests, which
	// determines which detection models can observe it (§5.2): an
	// in-RTL assertion checker (SymbFuzz) sees every violation; a
	// golden-reference differential comparator only sees violations
	// tagged "arch-diff"; an output-monitoring harness only those
	// tagged "output-visible".
	Tags []string
}

// HasTag reports whether the property carries the given tag.
func (p *Property) HasTag(tag string) bool {
	for _, t := range p.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Violation records one failed property evaluation (§4.9: property name
// and timestamp go into the report).
type Violation struct {
	Property string
	CWE      string
	Cycle    uint64
	Detail   string
}

// Checker samples signals each cycle and evaluates properties. It keeps
// per-signal history rings deep enough for every $past reference.
//
// History is stored as word copies of each signal's planes, read with
// sim.DUV.Words into preallocated rings, so pushing a cycle's values
// allocates nothing however many signals are tracked. Properties are
// compiled once per Bind (see compile) into closures over those words
// and the DUV's own, so a Sample in which no property fires allocates
// nothing either. Signal names are resolved to indices at the same
// time.
type Checker struct {
	props      []*Property
	group      []int          // per property: index of the first property with its name
	fired      []bool         // per group: a property of that name has fired
	compiled   []compiledProp // per property, valid while resolved
	hist       []history      // one ring per history-tracked signal
	histIdx    map[string]int // signal name -> index into hist
	histLen    int            // ring length: the deepest need of any signal
	histPos    int
	histFilled int
	resolved   bool // hist and compiled match sim and histLen
	sim        sim.DUV
	violations []Violation
	// FirstOnly reports each property at most once.
	FirstOnly bool
}

// compiledProp is one property lowered by compile.
type compiledProp struct {
	expr, disable evalFn // disable is nil without a DisableIff
}

// history is one signal's ring: histLen slots of nw words per plane.
// cur and slots cache the logic.BV that Val and PastVal last returned
// for the live value and for each slot, reused while the words match.
type history struct {
	name  string
	sig   int // -1: unknown signal, which always reads as X
	width int
	nw    int
	a, b  []uint64
	cur   logic.BV
	slots []logic.BV
}

// NewChecker builds a checker over the given properties.
func NewChecker(properties ...*Property) *Checker {
	c := &Checker{
		histIdx:   map[string]int{},
		histLen:   2,
		FirstOnly: true,
	}
	for _, p := range properties {
		c.AddProperty(p)
	}
	return c
}

// AddProperty registers another property.
func (c *Checker) AddProperty(p *Property) {
	g := len(c.props)
	for i, q := range c.props {
		if q.Name == p.Name {
			g = c.group[i]
			break
		}
	}
	c.props = append(c.props, p)
	c.group = append(c.group, g)
	c.fired = append(c.fired, false)
	set := map[string]int{}
	p.Expr.Signals(set)
	if p.DisableIff != nil {
		p.DisableIff.Signals(set)
	}
	var added []string
	for name, d := range set {
		need := d + 1
		if need < 2 {
			need = 2
		}
		// All rings share the deepest need so a single write cursor
		// works.
		if need > c.histLen {
			c.histLen = need
		}
		if _, ok := c.histIdx[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		c.histIdx[name] = len(c.hist)
		c.hist = append(c.hist, history{name: name})
	}
	c.resolved = false
	c.histPos = -1
	c.histFilled = 0
}

// Bind attaches the checker to a DUV backend; it samples on every
// cycle.
func (c *Checker) Bind(s sim.DUV) {
	c.sim = s
	c.resolved = false
	s.OnCycle(func(sim.DUV) { c.Sample() })
}

// resolve looks up every tracked signal in the bound DUV, sizes its
// ring to the current depth and compiles the properties against them.
func (c *Checker) resolve() {
	for i := range c.hist {
		h := &c.hist[i]
		h.sig = c.sim.SignalIndex(h.name)
		h.width, h.nw = 0, 0
		if h.sig >= 0 {
			h.width = c.sim.Design().Signals[h.sig].Width
			h.nw = (h.width + 63) / 64
		}
		if n := c.histLen * h.nw; len(h.a) != n {
			h.a, h.b = make([]uint64, n), make([]uint64, n)
		}
		h.cur, h.slots = logic.BV{}, make([]logic.BV, c.histLen)
	}
	c.compiled = make([]compiledProp, len(c.props))
	for i, p := range c.props {
		c.compiled[i].expr = c.compile(p.Expr)
		if p.DisableIff != nil {
			c.compiled[i].disable = c.compile(p.DisableIff)
		}
	}
	c.resolved = true
}

// slot returns the ring slot written n samples ago (n >= 1).
func (c *Checker) slot(n int) int {
	L := c.histLen
	return ((c.histPos-(n-1))%L + L) % L
}

// reuse returns *v when it holds exactly the given words, and
// otherwise replaces it with a fresh vector of them.
func reuse(v *logic.BV, width int, a, b []uint64) logic.BV {
	if va, vb := v.Words(); !v.Valid() || !slices.Equal(va, a) || !slices.Equal(vb, b) {
		*v = logic.FromWords(width, a, b)
	}
	return *v
}

// Val implements Ctx.
func (c *Checker) Val(name string) logic.BV {
	i, ok := c.histIdx[name]
	if !ok || !c.resolved {
		if idx := c.sim.SignalIndex(name); idx >= 0 {
			return c.sim.Get(idx)
		}
		return logic.X(1)
	}
	h := &c.hist[i]
	if h.sig < 0 {
		return logic.X(1)
	}
	a, b := c.sim.Words(h.sig)
	return reuse(&h.cur, h.width, a, b)
}

// PastVal implements Ctx. PastVal(name, 1) is the value at the previous
// cycle's sample point.
func (c *Checker) PastVal(name string, n int) logic.BV {
	i, ok := c.histIdx[name]
	if !ok || !c.resolved || n > c.histLen || n > c.histFilled {
		return logic.X(1)
	}
	h := &c.hist[i]
	if h.sig < 0 {
		return logic.X(1)
	}
	k := c.slot(n)
	off := k * h.nw
	return reuse(&h.slots[k], h.width, h.a[off:off+h.nw], h.b[off:off+h.nw])
}

// Cycle implements Ctx.
func (c *Checker) Cycle() uint64 {
	if c.sim == nil {
		return 0
	}
	return c.sim.Cycle()
}

// Sample evaluates every property against the current state, then
// pushes current values into the history rings.
func (c *Checker) Sample() {
	if !c.resolved {
		c.resolve()
	}
	for i, p := range c.props {
		if c.FirstOnly && c.fired[c.group[i]] {
			continue
		}
		cp := &c.compiled[i]
		if cp.disable != nil && cp.disable().truthy() == logic.L1 {
			continue
		}
		if cp.expr().truthy() == logic.L0 {
			c.violations = append(c.violations, Violation{
				Property: p.Name,
				CWE:      p.CWE,
				Cycle:    c.Cycle(),
				Detail:   p.Expr.String(),
			})
			c.fired[c.group[i]] = true
		}
	}
	// Push current values into the rings.
	L := c.histLen
	c.histPos = (c.histPos + 1 + L) % L
	for i := range c.hist {
		h := &c.hist[i]
		if h.sig < 0 {
			continue
		}
		a, b := c.sim.Words(h.sig)
		off := c.histPos * h.nw
		copy(h.a[off:off+h.nw], a)
		copy(h.b[off:off+h.nw], b)
	}
	if c.histFilled < L {
		c.histFilled++
	}
}

// Violations returns the recorded violations.
func (c *Checker) Violations() []Violation { return c.violations }

// Reset clears recorded violations and history (used when the fuzzer
// rolls back to a checkpoint).
func (c *Checker) Reset() {
	c.violations = nil
	c.histFilled = 0
	clear(c.fired)
}

// ResetHistory clears only sampled history, keeping found violations.
func (c *Checker) ResetHistory() { c.histFilled = 0 }
