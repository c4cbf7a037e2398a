package uvm

import (
	"fmt"
	"slices"

	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/simc"
)

// Driver translates sequence items into DUV pin assignments and clocks
// the design (Figure 2, block 4).
type Driver struct {
	BaseComponent
	Sim   sim.DUV
	Clock int // clock signal index, -1 for purely combinational DUVs
	// fieldIdx maps item fields to input signal indices.
	fieldIdx map[string]int
	// The last item layout applied, resolved: for each field in
	// application order, its position in the item and its input port.
	lay   *layout
	order []portField
}

// portField is one item field bound to the input port it drives.
type portField struct {
	pos, sig, width int
}

// NewDriver binds a driver to a DUV backend. Field-to-port mapping is
// by name against the design's input ports.
func NewDriver(name string, s sim.DUV, clock int) *Driver {
	d := &Driver{
		BaseComponent: NewBaseComponent(name),
		Sim:           s,
		Clock:         clock,
		fieldIdx:      map[string]int{},
	}
	for _, in := range s.Design().InputSignals() {
		d.fieldIdx[in.Name] = in.Index
	}
	return d
}

// resolve binds a layout's fields to input ports in application order.
func (d *Driver) resolve(l *layout) error {
	order := d.order[:0]
	for _, i := range l.sorted {
		idx, ok := d.fieldIdx[l.names[i]]
		if !ok {
			d.lay = nil
			return fmt.Errorf("uvm: item field %q does not match an input port", l.names[i])
		}
		order = append(order, portField{pos: i, sig: idx, width: d.Sim.Design().Signals[idx].Width})
	}
	d.lay, d.order = l, order
	return nil
}

// Apply drives one item: sets every field, then runs Hold clock cycles
// (or a single settle when the DUV has no clock). An item naming a
// field that is not an input port is rejected before any pin moves.
//
// Fields are applied in sorted name order: each Set re-evaluates the
// dependent combinational cone, and the transient states seen mid-apply
// feed the branch tracer — any other order would change the coverage
// event stream and with it the whole campaign. The order and the ports
// are worked out once per item layout, and every item a sequencer
// generates shares one.
func (d *Driver) Apply(it *Item) error {
	if it.layout != d.lay {
		if err := d.resolve(it.layout); err != nil {
			return err
		}
	}
	for _, f := range d.order {
		d.Sim.Set(f.sig, it.vals[f.pos].Resize(f.width))
	}
	if err := d.Sim.Settle(); err != nil {
		return err
	}
	hold := it.Hold
	if hold <= 0 {
		hold = 1
	}
	if d.Clock < 0 {
		d.Sim.AdvanceCycle()
		return nil
	}
	for i := 0; i < hold; i++ {
		if err := d.Sim.Tick(d.Clock); err != nil {
			return err
		}
	}
	return nil
}

// Monitor samples DUV outputs each cycle and owns the property checker
// (Figure 2, block 5; §4.9's violation detection).
type Monitor struct {
	BaseComponent
	Sim     sim.DUV
	Checker *props.Checker
	outs    []outSample // one per output port, in declaration order
	sampled bool
	board   *Scoreboard
}

// outSample is the most recent sample of one output port, kept as word
// copies; val caches its logic.BV while the words stay the same.
type outSample struct {
	sig  *elab.Signal
	a, b []uint64
	val  logic.BV
}

// NewMonitor builds a monitor with an optional property checker.
func NewMonitor(name string, s sim.DUV, chk *props.Checker) *Monitor {
	m := &Monitor{
		BaseComponent: NewBaseComponent(name),
		Sim:           s,
		Checker:       chk,
	}
	for _, out := range s.Design().OutputSignals() {
		nw := (out.Width + 63) / 64
		m.outs = append(m.outs, outSample{sig: out, a: make([]uint64, nw), b: make([]uint64, nw)})
	}
	if chk != nil {
		chk.Bind(s)
	}
	s.OnCycle(func(sim.DUV) { m.sample() })
	return m
}

func (m *Monitor) sample() {
	m.sampled = true
	for i := range m.outs {
		o := &m.outs[i]
		a, b := m.Sim.Words(o.sig.Index)
		copy(o.a, a)
		copy(o.b, b)
		if m.board != nil {
			m.board.observe(o.sig.Name, m.Sim.Cycle(), o.sig.Width, a, b)
		}
	}
}

// Observation returns the most recent sample of an output port; ok is
// false for a name that is not an output or before the first cycle.
func (m *Monitor) Observation(name string) (v logic.BV, ok bool) {
	for i := range m.outs {
		o := &m.outs[i]
		if o.sig.Name != name {
			continue
		}
		if va, vb := o.val.Words(); !o.val.Valid() || !slices.Equal(va, o.a) || !slices.Equal(vb, o.b) {
			o.val = logic.FromWords(o.sig.Width, o.a, o.b)
		}
		return o.val, m.sampled
	}
	return logic.BV{}, false
}

// Violations returns property violations recorded so far.
func (m *Monitor) Violations() []props.Violation {
	if m.Checker == nil {
		return nil
	}
	return m.Checker.Violations()
}

// Observation is one recorded output sample.
type Observation struct {
	Signal string
	Cycle  uint64
	Value  logic.BV
}

// Scoreboard accumulates monitor observations and optionally compares
// them against a golden reference model (§5.5.3's extension to
// manufacturing-fault detection). Observations are kept as word copies
// in a ring whose slots are reused once it is full, so recording one
// costs no allocation in the steady state.
type Scoreboard struct {
	BaseComponent
	// Golden, when set, predicts the expected value of a signal at a
	// cycle; mismatches (on fully defined values) are recorded.
	Golden     func(signal string, cycle uint64) (logic.BV, bool)
	Mismatches []Observation
	// Cap bounds retained observations (ring semantics); 0 keeps all.
	Cap  int
	ring []obsSlot
	next int // the oldest slot once the ring is full
}

// obsSlot is one retained observation: w holds the aval words, then
// the bval words.
type obsSlot struct {
	signal string
	cycle  uint64
	width  int
	w      []uint64
}

// NewScoreboard builds an empty scoreboard.
func NewScoreboard(name string) *Scoreboard {
	return &Scoreboard{BaseComponent: NewBaseComponent(name), Cap: 4096}
}

// observe records one output sample.
func (s *Scoreboard) observe(signal string, cycle uint64, width int, a, b []uint64) {
	var slot *obsSlot
	if s.Cap <= 0 || len(s.ring) < s.Cap {
		s.ring = append(s.ring, obsSlot{})
		slot = &s.ring[len(s.ring)-1]
	} else {
		slot = &s.ring[s.next]
		s.next = (s.next + 1) % len(s.ring)
	}
	slot.signal, slot.cycle, slot.width = signal, cycle, width
	slot.w = append(append(slot.w[:0], a...), b...)
	if s.Golden != nil {
		want, ok := s.Golden(signal, cycle)
		if v := logic.FromWords(width, a, b); ok && v.IsFullyDefined() && want.IsFullyDefined() && !v.Eq4(want) {
			s.Mismatches = append(s.Mismatches, Observation{Signal: signal, Cycle: cycle, Value: v})
		}
	}
}

// Observations returns the retained observations, oldest first.
func (s *Scoreboard) Observations() []Observation {
	out := make([]Observation, 0, len(s.ring))
	for k := range s.ring {
		o := &s.ring[(s.next+k)%len(s.ring)]
		nw := len(o.w) / 2
		out = append(out, Observation{Signal: o.signal, Cycle: o.cycle, Value: logic.FromWords(o.width, o.w[:nw], o.w[nw:])})
	}
	return out
}

// Agent bundles sequencer, driver and monitor (Figure 2, blocks 3-5).
type Agent struct {
	BaseComponent
	Sequencer *Sequencer
	Driver    *Driver
	Monitor   *Monitor
}

// Env is the UVM testbench environment (Figure 2, blocks 1-2): it
// connects the agent and scoreboard around a simulated DUV.
type Env struct {
	BaseComponent
	Sim         sim.DUV
	Agent       *Agent
	Scoreboard  *Scoreboard
	ClockInfo   sim.ResetInfo
	connected   bool
	resetCycles int
}

// EnvConfig parameterizes environment construction.
type EnvConfig struct {
	Seed int64
	// Properties to monitor.
	Properties []*props.Property
	// ResetCycles applied by Reset (default 2).
	ResetCycles int
	// SimBackend selects the DUV implementation: "compiled" (default,
	// the internal/simc closure-compiled backend) or "interp" (the
	// event-driven four-state interpreter, kept as the reference
	// oracle). Both are observationally identical, so campaign
	// trajectories do not depend on the choice.
	SimBackend string
}

// NewBackend constructs a DUV for the design using the named backend
// ("" or "compiled", or "interp").
func NewBackend(d *elab.Design, backend string) (sim.DUV, error) {
	switch backend {
	case "", "compiled":
		return simc.New(d)
	case "interp":
		return sim.New(d)
	default:
		return nil, fmt.Errorf("uvm: unknown sim backend %q (want compiled or interp)", backend)
	}
}

// NewEnv builds the standard environment around a design: detects the
// clock/reset tree (§4.3), builds the sequencer over the remaining
// input ports (§4.2), and wires driver, monitor and scoreboard.
func NewEnv(d *elab.Design, cfg EnvConfig) (*Env, error) {
	s, err := NewBackend(d, cfg.SimBackend)
	if err != nil {
		return nil, err
	}
	info := sim.DetectClockReset(d)
	exclude := map[string]bool{}
	if info.Clock >= 0 {
		exclude[d.Signals[info.Clock].Name] = true
	}
	if info.Reset >= 0 {
		exclude[d.Signals[info.Reset].Name] = true
	}
	env := &Env{
		BaseComponent: NewBaseComponent("env"),
		Sim:           s,
		ClockInfo:     info,
	}
	var chk *props.Checker
	if len(cfg.Properties) > 0 {
		chk = props.NewChecker(cfg.Properties...)
	}
	agent := &Agent{
		BaseComponent: NewBaseComponent("agent"),
		Sequencer:     SequencerForDesign(d, exclude, cfg.Seed),
		Driver:        NewDriver("driver", s, info.Clock),
		Monitor:       NewMonitor("monitor", s, chk),
	}
	agent.AddChild(agent.Sequencer)
	agent.AddChild(agent.Driver)
	agent.AddChild(agent.Monitor)
	env.Agent = agent
	env.Scoreboard = NewScoreboard("scoreboard")
	agent.Monitor.board = env.Scoreboard
	env.AddChild(agent)
	env.AddChild(env.Scoreboard)
	if err := RunPhases(env); err != nil {
		return nil, err
	}
	env.connected = true
	env.resetCycles = cfg.ResetCycles
	if env.resetCycles == 0 {
		env.resetCycles = 2
	}
	return env, nil
}

// Reset applies the reset sequence, leaving the DUV in its deterministic
// start state (Algorithm 1's deterministic test execution).
func (e *Env) Reset() error {
	return e.Sim.ApplyReset(e.ClockInfo, e.resetCycles)
}

// Step generates, drives and checks one item, returning it.
func (e *Env) Step() (*Item, error) {
	it := e.Agent.Sequencer.NextItem()
	if err := e.Agent.Driver.Apply(it); err != nil {
		return nil, err
	}
	return it, nil
}

// Violations exposes the monitor's recorded property violations.
func (e *Env) Violations() []props.Violation { return e.Agent.Monitor.Violations() }
