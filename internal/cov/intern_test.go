package cov

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/simc"
)

// refCFGCov is the string-keyed CFG coverage monitor that CFGCov's
// interned tables replace: it renders every cluster valuation and every
// interaction tuple as a string on every cycle. It is kept as the
// reference the interned monitor must match set for set.
type refCFGCov struct {
	c        *CFGCov // shape and branch-register lists only
	prevKey  []string
	prevNode []int
	events   [][2]int
	hasPrev  bool

	NodesSeen, EdgesSeen []map[int]bool
	DynNodes, DynEdges   map[string]bool
	Tuples               map[string]bool
}

func newRef(p *cfg.Partition) *refCFGCov {
	r := &refCFGCov{
		c:         NewCFGCov(p),
		prevKey:   make([]string, len(p.Graphs)),
		prevNode:  make([]int, len(p.Graphs)),
		NodesSeen: make([]map[int]bool, len(p.Graphs)),
		EdgesSeen: make([]map[int]bool, len(p.Graphs)),
		DynNodes:  map[string]bool{},
		DynEdges:  map[string]bool{},
		Tuples:    map[string]bool{},
	}
	for i := range p.Graphs {
		r.NodesSeen[i], r.EdgesSeen[i] = map[int]bool{}, map[int]bool{}
		r.prevNode[i] = -1
	}
	return r
}

func (r *refCFGCov) Name() string       { return "reference" }
func (r *refCFGCov) Points() int        { return 0 }
func (r *refCFGCov) Branch(id, arm int) { r.events = append(r.events, [2]int{id, arm}) }

func (r *refCFGCov) Sample(s sim.DUV) {
	for gi, g := range r.c.P.Graphs {
		key := nodeKeyOf(g, s)
		nid := -1
		if id, ok := g.ByKey[canonKey(key)]; ok {
			nid = id
			r.NodesSeen[gi][id] = true
		} else {
			r.DynNodes[fmt.Sprintf("g%d:%s", gi, key)] = true
		}
		if r.hasPrev {
			covered := false
			if r.prevNode[gi] >= 0 && nid >= 0 {
				for _, eid := range g.Nodes[r.prevNode[gi]].Out {
					if g.Edges[eid].To == nid {
						r.EdgesSeen[gi][eid] = true
						covered = true
						break
					}
				}
			}
			if !covered && key != r.prevKey[gi] {
				r.DynEdges[fmt.Sprintf("g%d:%s>%s", gi, r.prevKey[gi], key)] = true
			}
		}
		r.prevKey[gi] = key
		r.prevNode[gi] = nid
	}
	for _, ev := range r.events {
		id, arm := ev[0], ev[1]
		tuple := fmt.Sprintf("b%d.%d", id, arm)
		if id < len(r.c.branchRegs) {
			for _, ridx := range r.c.branchRegs[id] {
				tuple += "|" + s.Get(ridx).BitString()
			}
		}
		r.Tuples[tuple] = true
	}
	r.events = r.events[:0]
	r.hasPrev = true
}

func (r *refCFGCov) ResetPosition() {
	r.hasPrev = false
	for i := range r.prevNode {
		r.prevNode[i] = -1
		r.prevKey[i] = ""
	}
	r.events = r.events[:0]
}

func (r *refCFGCov) SyncPosition(s sim.DUV) {
	for gi, g := range r.c.P.Graphs {
		key := nodeKeyOf(g, s)
		r.prevKey[gi] = key
		r.prevNode[gi] = -1
		if id, ok := g.ByKey[canonKey(key)]; ok {
			r.prevNode[gi] = id
		}
	}
	r.hasPrev = true
	r.events = r.events[:0]
}

// socFixture is opentitan_mini after reset on one backend, with the
// clustered CFG the engine builds for it.
type socFixture struct {
	s      sim.DUV
	part   *cfg.Partition
	info   sim.ResetInfo
	inputs []*elab.Signal
}

func newSoC(t testing.TB, backend string) *socFixture {
	t.Helper()
	d, err := designs.OpenTitanMini(nil).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	var s sim.DUV
	switch backend {
	case "interp":
		s, err = sim.New(d)
	case "compiled":
		s, err = simc.New(d)
	}
	if err != nil {
		t.Fatal(err)
	}
	info := sim.DetectClockReset(d)
	if err := s.ApplyReset(info, 2); err != nil {
		t.Fatal(err)
	}
	tr, err := cfg.BuildTransition(d)
	if err != nil {
		t.Fatal(err)
	}
	pin := map[string]logic.BV{}
	if info.Reset >= 0 {
		v := logic.Ones(1)
		if !info.ActiveLow {
			v = logic.Zero(1)
		}
		pin[d.Signals[info.Reset].Name] = v
	}
	resetVals := map[int]logic.BV{}
	for _, cr := range cfg.ControlRegisters(d) {
		resetVals[cr.Sig.Index] = s.Get(cr.Sig.Index)
	}
	part, err := cfg.BuildPartition(d, tr, resetVals, cfg.Options{Pin: pin})
	if err != nil {
		t.Fatal(err)
	}
	f := &socFixture{s: s, part: part, info: info}
	for _, sig := range d.InputSignals() {
		if sig.Index != info.Clock && sig.Index != info.Reset {
			f.inputs = append(f.inputs, sig)
		}
	}
	return f
}

// step drives one random input vector (sometimes with X bits, so
// four-state valuations reach the keys) and ticks the clock.
func (f *socFixture) step(t testing.TB, rng *rand.Rand) {
	t.Helper()
	for _, sig := range f.inputs {
		v := logic.Rand(sig.Width, rng.Uint64)
		if rng.Intn(64) == 0 {
			v = logic.X(sig.Width)
		}
		f.s.Set(sig.Index, v)
	}
	if err := f.s.Tick(f.info.Clock); err != nil {
		t.Fatal(err)
	}
}

// runLockstep drives a campaign-shaped run on opentitan_mini: random
// stimulus, periodic snapshots, and rollbacks to an earlier snapshot
// followed by ResetPosition (replay style) or SyncPosition (snapshot
// style), with the interned monitor and the reference observing the
// same cycles. It fails at the first point where their sets differ.
func runLockstep(t *testing.T, backend string, cycles int) *CFGCov {
	f := newSoC(t, backend)
	c, ref := NewCFGCov(f.part), newRef(f.part)
	Attach(f.s, NewMulti(c, ref))
	rng := rand.New(rand.NewSource(7))
	var snaps []*sim.Snapshot
	for i := 1; i <= cycles; i++ {
		f.step(t, rng)
		switch {
		case i%40 == 0:
			snaps = append(snaps, f.s.Snapshot())
		case i%97 == 0 && len(snaps) > 0:
			f.s.Restore(snaps[rng.Intn(len(snaps))])
			if rng.Intn(2) == 0 {
				c.ResetPosition()
				ref.ResetPosition()
			} else {
				c.SyncPosition(f.s)
				ref.SyncPosition(f.s)
			}
			assertSameSets(t, fmt.Sprintf("%s rollback at cycle %d", backend, i), c, ref)
		}
	}
	assertSameSets(t, backend+" end", c, ref)
	return c
}

func assertSameSets(t *testing.T, where string, c *CFGCov, ref *refCFGCov) {
	t.Helper()
	for gi := range ref.NodesSeen {
		if !maps.Equal(c.NodesSeen[gi], ref.NodesSeen[gi]) {
			t.Fatalf("%s: cluster %d NodesSeen differ: %d vs reference %d", where, gi, len(c.NodesSeen[gi]), len(ref.NodesSeen[gi]))
		}
		if !maps.Equal(c.EdgesSeen[gi], ref.EdgesSeen[gi]) {
			t.Fatalf("%s: cluster %d EdgesSeen differ: %d vs reference %d", where, gi, len(c.EdgesSeen[gi]), len(ref.EdgesSeen[gi]))
		}
	}
	if !maps.Equal(c.Tuples, ref.Tuples) {
		t.Fatalf("%s: Tuples differ: %d vs reference %d", where, len(c.Tuples), len(ref.Tuples))
	}
	if c.Overflow == 0 {
		if !maps.Equal(c.DynNodes, ref.DynNodes) {
			t.Fatalf("%s: DynNodes differ: %d vs reference %d", where, len(c.DynNodes), len(ref.DynNodes))
		}
		if !maps.Equal(c.DynEdges, ref.DynEdges) {
			t.Fatalf("%s: DynEdges differ: %d vs reference %d", where, len(c.DynEdges), len(ref.DynEdges))
		}
		return
	}
	// Past a table cap the diagnostics are a bounded subset.
	for _, m := range [][2]map[string]bool{{c.DynNodes, ref.DynNodes}, {c.DynEdges, ref.DynEdges}} {
		if len(m[0]) > maxTable {
			t.Fatalf("%s: diagnostic set grew to %d past the %d cap", where, len(m[0]), maxTable)
		}
		for k := range m[0] {
			if !m[1][k] {
				t.Fatalf("%s: diagnostic %q not in the reference", where, k)
			}
		}
	}
}

// TestInternedSampleMatchesStringReference runs the interned monitor
// and the string-keyed reference in lockstep over both backends,
// across snapshot rollbacks with either position reset.
func TestInternedSampleMatchesStringReference(t *testing.T) {
	for _, backend := range []string{"compiled", "interp"} {
		t.Run(backend, func(t *testing.T) {
			c := runLockstep(t, backend, 1500)
			t.Logf("%d tuples, %d dyn nodes, %d dyn edges", len(c.Tuples), len(c.DynNodes), len(c.DynEdges))
			if len(c.Tuples) == 0 || len(c.DynNodes) == 0 || len(c.DynEdges) == 0 {
				t.Fatalf("run too weak to compare: %d tuples, %d dyn nodes, %d dyn edges", len(c.Tuples), len(c.DynNodes), len(c.DynEdges))
			}
			if c.Overflow != 0 {
				t.Fatalf("overflow %d below the table cap", c.Overflow)
			}
		})
	}
}

// TestTableCapKeepsCoverageExact lowers the table cap so every intern
// table, guard and diagnostic set overflows: coverage must still match
// the reference exactly, the diagnostics stay within the cap, and the
// overflow is counted.
func TestTableCapKeepsCoverageExact(t *testing.T) {
	defer func(n int) { maxTable = n }(maxTable)
	maxTable = 4
	c := runLockstep(t, "compiled", 600)
	if c.Overflow == 0 {
		t.Fatal("no overflow counted at a cap of 4")
	}
	for gi := range c.tabs {
		if n := len(c.tabs[gi].entries); n > maxTable {
			t.Fatalf("cluster %d intern table holds %d entries past the cap", gi, n)
		}
	}
	if len(c.edgeGuard) > maxTable || len(c.tupleSeen) > maxTable {
		t.Fatalf("guards grew past the cap: %d edges, %d tuples", len(c.edgeGuard), len(c.tupleSeen))
	}
}

// lastCycle records the branch events of the most recent cycle.
type lastCycle struct{ cur, last [][2]int }

func (l *lastCycle) Name() string       { return "last-cycle" }
func (l *lastCycle) Points() int        { return 0 }
func (l *lastCycle) Branch(id, arm int) { l.cur = append(l.cur, [2]int{id, arm}) }
func (l *lastCycle) Sample(sim.DUV) {
	l.last = append(l.last[:0], l.cur...)
	l.cur = l.cur[:0]
}

// TestSampleZeroAllocOnRevisit pins the allocation-free observation
// path: on compiled opentitan_mini, sampling a state whose valuations
// and tuples have been seen before allocates nothing.
func TestSampleZeroAllocOnRevisit(t *testing.T) {
	f := newSoC(t, "compiled")
	c, rec := NewCFGCov(f.part), &lastCycle{}
	Attach(f.s, NewMulti(c, rec))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		f.step(t, rng)
	}
	if len(rec.last) == 0 {
		t.Fatal("no branch events in the last cycle")
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, ev := range rec.last {
			c.Branch(ev[0], ev[1])
		}
		c.Sample(f.s)
	})
	if allocs != 0 {
		t.Fatalf("Sample on a revisited state: %v allocations, want 0", allocs)
	}
}
