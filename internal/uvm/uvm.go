// Package uvm is a Universal Verification Methodology-style testbench
// framework over the RTL simulator, mirroring the structure of the
// paper's Figure 2: a component tree with build/connect/run phases, a
// Sequencer generating constrained-random sequence items (backed by the
// SMT solver, as SymbFuzz's block 10 injects solved constraints), a
// Driver translating items into DUV pin wiggles, a Monitor sampling
// outputs and evaluating security properties, and a Scoreboard
// collecting observations (with an optional golden-reference comparator
// for the §5.5.3 manufacturing-fault extension).
package uvm

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/smt"
)

// Phase identifies a UVM phase.
type Phase int

// Phases in execution order.
const (
	BuildPhase Phase = iota
	ConnectPhase
	RunPhase
)

// Component is a node in the UVM component tree.
type Component interface {
	Name() string
	// Phase runs one lifecycle phase; errors abort elaboration.
	Phase(p Phase) error
	Children() []Component
}

// BaseComponent provides naming and child management.
type BaseComponent struct {
	name     string
	children []Component
}

// NewBaseComponent names a component.
func NewBaseComponent(name string) BaseComponent { return BaseComponent{name: name} }

// Name returns the component name.
func (b *BaseComponent) Name() string { return b.name }

// Children returns registered child components.
func (b *BaseComponent) Children() []Component { return b.children }

// AddChild registers a child component.
func (b *BaseComponent) AddChild(c Component) { b.children = append(b.children, c) }

// Phase is a no-op by default.
func (b *BaseComponent) Phase(Phase) error { return nil }

// RunPhases walks the tree depth-first for each phase in order.
func RunPhases(root Component) error {
	for _, p := range []Phase{BuildPhase, ConnectPhase} {
		if err := walkPhase(root, p); err != nil {
			return err
		}
	}
	return nil
}

func walkPhase(c Component, p Phase) error {
	if err := c.Phase(p); err != nil {
		return fmt.Errorf("uvm: %s phase %d: %w", c.Name(), p, err)
	}
	for _, ch := range c.Children() {
		if err := walkPhase(ch, p); err != nil {
			return err
		}
	}
	return nil
}

// ---- sequence items ----

// FieldSpec describes one randomizable field of a sequence item,
// typically one DUV input port.
type FieldSpec struct {
	Name  string
	Width int
}

// Item is one transaction: an assignment of stimulus fields. Its
// values sit in a slice parallel to a field-name layout, in the order
// the sequencer lists its fields; items a sequencer generates share one
// layout. An item is immutable once built, and so are its values, so
// items are shared freely (replay prefixes, corpora, pinned queues)
// instead of copied.
type Item struct {
	layout *layout
	vals   []logic.BV // vals[i] is the value of field layout.names[i]
	// Hold is how many cycles the driver keeps the item applied.
	Hold int
}

// layout is the field-name list items are built over, with the
// driver's application order worked out once.
type layout struct {
	names  []string
	sorted []int // positions of names in ascending name order
}

func newLayout(names []string) *layout {
	l := &layout{names: names, sorted: make([]int, len(names))}
	for i := range l.sorted {
		l.sorted[i] = i
	}
	sort.Slice(l.sorted, func(i, j int) bool { return names[l.sorted[i]] < names[l.sorted[j]] })
	return l
}

// NewItem builds an item, held for one cycle, that assigns vals[i] to
// the field names[i]. Names must be distinct and the slices the same
// length; both are copied.
func NewItem(names []string, vals []logic.BV) *Item {
	if len(names) != len(vals) {
		panic(fmt.Sprintf("uvm: NewItem with %d names and %d values", len(names), len(vals)))
	}
	l := newLayout(append([]string(nil), names...))
	for k := 1; k < len(l.sorted); k++ {
		if names[l.sorted[k]] == names[l.sorted[k-1]] {
			panic(fmt.Sprintf("uvm: NewItem names field %q twice", names[l.sorted[k]]))
		}
	}
	return &Item{layout: l, vals: append([]logic.BV(nil), vals...), Hold: 1}
}

// Value returns the value the item assigns to a field, and whether it
// assigns one.
func (it *Item) Value(name string) (logic.BV, bool) {
	for i, n := range it.layout.names {
		if n == name {
			return it.vals[i], true
		}
	}
	return logic.BV{}, false
}

// Key returns a deterministic content key for corpus deduplication.
func (it *Item) Key() string {
	s := ""
	for _, i := range it.layout.sorted {
		s += it.layout.names[i] + "=" + it.vals[i].Key() + ";"
	}
	return s
}

// Constraint builds a 1-bit SMT term over the item fields; the vars map
// provides a solver variable per field (Listing 3's UVM constraints).
type Constraint func(vars map[string]*smt.Term) *smt.Term

// Sequencer generates stimulus items: pure random bit-strings by
// default (§4.8), SMT-constrained randomization when constraints are
// installed, and exact replay when stimuli are pinned (checkpoint
// replay and solver-directed steering).
type Sequencer struct {
	BaseComponent
	// Fields are the stimulus fields, in generation order; read-only
	// after construction.
	Fields      []FieldSpec
	layout      *layout // over Fields
	rng         *rand.Rand
	constraints []Constraint
	pinned      []*Item // exact next items, FIFO from pinHead
	pinHead     int
	// Generated items are carved from chunks: their values' words from
	// slab, the value slices from vals, the items from items. Each is
	// written once, when the item is built.
	slab  logic.Slab
	vals  []logic.BV
	items []Item
	// Generated counts items produced (the "# of input vectors" metric).
	Generated uint64
	// Obs receives item-generation telemetry (seq_items counter and
	// constrained-randomization solve latency); nil disables.
	Obs *obs.Observer
}

// NewSequencer builds a sequencer over the given fields.
func NewSequencer(name string, fields []FieldSpec, seed int64) *Sequencer {
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.Name
	}
	return &Sequencer{
		BaseComponent: NewBaseComponent(name),
		Fields:        fields,
		layout:        newLayout(names),
		rng:           rand.New(rand.NewSource(seed)),
	}
}

// itemChunk is how many items, and how many items' worth of values, a
// sequencer allocates at a time.
const itemChunk = 256

// newVals returns an empty value slice for one item over Fields.
func (s *Sequencer) newVals() []logic.BV {
	n := len(s.Fields)
	if len(s.vals) < n {
		s.vals = make([]logic.BV, itemChunk*n)
	}
	v := s.vals[:n:n]
	s.vals = s.vals[n:]
	return v
}

// item builds a generated item over Fields from values in Fields order.
func (s *Sequencer) item(vals []logic.BV) *Item {
	if len(s.items) == 0 {
		s.items = make([]Item, itemChunk)
	}
	it := &s.items[0]
	s.items = s.items[1:]
	*it = Item{layout: s.layout, vals: vals, Hold: 1}
	return it
}

// SequencerForDesign derives the stimulus fields from a design's input
// ports, excluding the clock and reset which the harness drives.
func SequencerForDesign(d *elab.Design, exclude map[string]bool, seed int64) *Sequencer {
	var fields []FieldSpec
	for _, in := range d.InputSignals() {
		if exclude[in.Name] {
			continue
		}
		fields = append(fields, FieldSpec{Name: in.Name, Width: in.Width})
	}
	return NewSequencer("sequencer", fields, seed)
}

// AddConstraint installs a constraint applied to every generated item
// until ClearConstraints.
func (s *Sequencer) AddConstraint(c Constraint) { s.constraints = append(s.constraints, c) }

// ClearConstraints removes all installed constraints.
func (s *Sequencer) ClearConstraints() { s.constraints = nil }

// PinNext enqueues an exact item to be returned before any generation.
func (s *Sequencer) PinNext(it *Item) { s.pinned = append(s.pinned, it) }

// PendingPinned reports how many exact items are queued.
func (s *Sequencer) PendingPinned() int { return len(s.pinned) - s.pinHead }

// ClearPinned drops queued exact items (stale plans after a rollback).
func (s *Sequencer) ClearPinned() {
	clear(s.pinned)
	s.pinned, s.pinHead = s.pinned[:0], 0
}

// NextItem produces the next stimulus item.
func (s *Sequencer) NextItem() *Item {
	s.Generated++
	s.Obs.SeqItem()
	if s.pinHead < len(s.pinned) {
		it := s.pinned[s.pinHead]
		s.pinned[s.pinHead] = nil
		s.pinHead++
		if s.pinHead == len(s.pinned) {
			s.pinned, s.pinHead = s.pinned[:0], 0
		}
		return it
	}
	if len(s.constraints) == 0 {
		return s.randomItem()
	}
	if it := s.solveItem(); it != nil {
		return it
	}
	// Unsatisfiable constraints: fall back to random stimulus so the
	// fuzzing loop never stalls.
	return s.randomItem()
}

func (s *Sequencer) randomItem() *Item {
	vals := s.newVals()
	for i, f := range s.Fields {
		vals[i] = s.slab.Rand(f.Width, s.rng.Uint64)
	}
	return s.item(vals)
}

// solveItem runs the SMT solver with random decision polarity so that
// repeated calls explore diverse solutions of the same constraints.
func (s *Sequencer) solveItem() *Item {
	if s.Obs != nil {
		start := time.Now()
		defer func() { s.Obs.SeqSolve(int64(time.Since(start))) }()
	}
	sol := smt.NewSolver()
	sol.SetRand(rand.New(rand.NewSource(s.rng.Int63())))
	vars := map[string]*smt.Term{}
	for _, f := range s.Fields {
		vars[f.Name] = sol.Var(f.Name, f.Width)
	}
	for _, c := range s.constraints {
		sol.Assert(c(vars))
	}
	if sol.Solve() != smt.Sat {
		return nil
	}
	m := sol.Model()
	vals := s.newVals()
	for i, f := range s.Fields {
		v, ok := m[f.Name]
		if !ok {
			v = s.slab.Rand(f.Width, s.rng.Uint64)
		}
		vals[i] = v
	}
	return s.item(vals)
}

// Mutate flips a random number of bits in a parent item, the
// mutation-based half of seed generation (§4.8). A field the parent
// does not assign is drawn at random first, then flipped.
func (s *Sequencer) Mutate(parent *Item) *Item {
	if len(s.Fields) == 0 {
		return parent
	}
	l := parent.layout
	names := l.names
	vals := append([]logic.BV(nil), parent.vals...)
	flips := 1 + s.rng.Intn(4)
	for i := 0; i < flips; i++ {
		f := s.Fields[s.rng.Intn(len(s.Fields))]
		j := slices.Index(names, f.Name)
		var v logic.BV
		if j >= 0 {
			v = vals[j]
		}
		if !v.Valid() {
			v = logic.Rand(f.Width, s.rng.Uint64)
		}
		bit := s.rng.Intn(f.Width)
		if v.Bit(bit) == logic.L1 {
			v = v.WithBit(bit, logic.L0)
		} else {
			v = v.WithBit(bit, logic.L1)
		}
		if j < 0 {
			names = append(names[:len(names):len(names)], f.Name)
			vals = append(vals, v)
			l = nil
		} else {
			vals[j] = v
		}
	}
	if l == nil {
		l = newLayout(names)
	}
	return &Item{layout: l, vals: vals, Hold: parent.Hold}
}
