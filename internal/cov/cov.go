// Package cov implements the coverage models the paper compares (§5.3):
//
//   - CFGCov — SymbFuzz's coverage (§4.6): CFG nodes (control-register
//     valuations), edges (transitions), and ⟨edge ID, C(i1,i2)⟩
//     interaction tuples.
//   - MuxCov — RFuzz's mux-select (branch-arm) coverage.
//   - RegCov — DifuzzRTL's hashed control-register-value coverage.
//   - EdgeHashCov — HWFP's AFL-style hashed edge coverage over the
//     instrumented branch stream.
//
// Each monitor plugs into the simulator as a branch tracer plus a
// per-cycle sampler, and reports a monotonically growing point count.
package cov

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/cfg"
	"repro/internal/sim"
)

// Monitor is a pluggable coverage model.
type Monitor interface {
	// Branch receives branch-arm events (sim tracer).
	Branch(id, arm int)
	// Sample is called once per completed cycle.
	Sample(s sim.DUV)
	// Points is the current number of distinct coverage points.
	Points() int
	// Name identifies the model.
	Name() string
}

// Attach wires a monitor to a DUV backend (tracer + cycle listener).
func Attach(s sim.DUV, m Monitor) {
	s.SetTracer(tracerFunc(m.Branch))
	s.OnCycle(func(sm sim.DUV) { m.Sample(sm) })
}

type tracerFunc func(id, arm int)

func (f tracerFunc) Branch(id, arm int) { f(id, arm) }

// ---- SymbFuzz CFG coverage ----

// CFGCov tracks node, edge and interaction-tuple coverage against the
// clustered static CFG of a design.
//
// The per-cycle path allocates nothing once a state has been seen:
// each cluster's control-register valuation is packed from the DUV's
// word planes (sim.DUV.Words) into a scratch buffer and looked up in a
// per-cluster intern table. The rendered string key, its static node
// and its DynNodes entry are computed only on a valuation's first
// sighting; edges, DynEdges and interaction tuples are guarded the
// same way by packed-key sets. The public maps keep their string and
// int keys, so wire formats, merges and reports do not see the tables.
//
// A monitor built by NewCFGCov also keeps, per static node, the number
// of its out-edges not yet in EdgesSeen (UncoveredOut), so guidance can
// rank nodes without listing their edges. EdgesSeen must then grow only
// through Sample and Merge; a monitor built as a struct literal keeps no
// counts and may be filled directly.
type CFGCov struct {
	P *cfg.Partition
	// NodesSeen / EdgesSeen are static hits, per cluster graph.
	NodesSeen []map[int]bool
	EdgesSeen []map[int]bool
	// DynNodes / DynEdges are valuations and transitions observed at
	// run time but absent from the (possibly truncated) static graphs;
	// tracked for diagnostics but excluded from Points so the metric
	// stays bounded on large designs. Each holds at most maxTable
	// entries; later observations are counted in Overflow instead.
	DynNodes map[string]bool
	DynEdges map[string]bool
	// Tuples are the control-register interaction tuples of §4.6: each
	// exercised branch arm paired with the valuations of the control
	// registers that branch reads. The population is a sum of local
	// products (per-branch register domains), which is what keeps the
	// paper's coverage countable (~2x10^4 points) instead of the full
	// Cartesian state space.
	Tuples map[string]bool

	// Dropped counts branch events discarded at the event-buffer cap;
	// dropped events lose their interaction tuples for the cycle, so a
	// nonzero count means the tuple metric undercounts. The engine
	// reports it as the cov_events_dropped metric.
	Dropped uint64
	// Overflow counts observations that found a bounded table full
	// (maxTable entries): a valuation or tuple the intern tables could
	// not cache, which is then handled on the slower string path with
	// exact coverage, or a DynNodes/DynEdges diagnostic that was not
	// recorded. Points never depends on it.
	Overflow uint64

	// branchRegs[id] lists the control registers branch id reads.
	branchRegs [][]int
	// uncov[gi][node] counts node's out-edges absent from EdgesSeen[gi]
	// (nil on struct-literal monitors).
	uncov [][]int32

	prevKey  []string
	prevID   []int32 // intern ID of prevKey, -1 when uncached
	prevNode []int
	events   [][2]int
	hasPrev  bool

	// Intern and guard tables, built on the first Sample or
	// SyncPosition so that constructing a monitor stays cheap.
	tabs      []internTab
	edgeGuard map[dynEdge]struct{}
	tupleSeen map[string]struct{}
	lastTuple [][]byte // per branch: the packed tuple it last recorded
	buf       []byte   // packing scratch
}

// maxTable bounds every map the monitor grows with campaign length
// apart from the coverage sets themselves: DynNodes, DynEdges, each
// cluster's intern table and the edge and tuple guards. It is a
// variable only so tests can exercise the overflow paths.
var maxTable = 1 << 16

// internTab interns one cluster's packed control-register valuations.
type internTab struct {
	regs     []int            // the cluster's control-register signals
	ids      map[string]int32 // packed valuation -> index into entries
	entries  []internEntry
	selfEdge []int // per static node: its self-loop edge ID, or -1
}

// internEntry is everything the string path computes for a valuation.
type internEntry struct {
	node   int    // static node ID, -1 off-graph
	key    string // nodeKeyOf rendering
	packed string // the entry's intern-table key
	noted  bool   // DynNodes insert done (off-graph entries only)
}

// dynEdge identifies an off-graph transition by intern IDs.
type dynEdge struct{ gi, from, to int32 }

// NewCFGCov builds the SymbFuzz coverage monitor over a clustered CFG.
func NewCFGCov(p *cfg.Partition) *CFGCov {
	c := &CFGCov{
		P:          p,
		NodesSeen:  make([]map[int]bool, len(p.Graphs)),
		EdgesSeen:  make([]map[int]bool, len(p.Graphs)),
		DynNodes:   map[string]bool{},
		DynEdges:   map[string]bool{},
		Tuples:     map[string]bool{},
		branchRegs: make([][]int, p.Design.Branches),
		prevKey:    make([]string, len(p.Graphs)),
		prevID:     make([]int32, len(p.Graphs)),
		prevNode:   make([]int, len(p.Graphs)),
		uncov:      make([][]int32, len(p.Graphs)),
	}
	for i, g := range p.Graphs {
		c.NodesSeen[i] = map[int]bool{}
		c.EdgesSeen[i] = map[int]bool{}
		c.prevNode[i] = -1
		c.prevID[i] = -1
		c.uncov[i] = make([]int32, len(g.Nodes))
		for n, node := range g.Nodes {
			c.uncov[i][n] = int32(len(node.Out))
		}
	}
	ctrl := map[int]bool{}
	for _, g := range p.Graphs {
		for _, cr := range g.Regs {
			ctrl[cr.Sig.Index] = true
		}
	}
	for _, bi := range p.Design.BranchInfo {
		var regs []int
		for _, s := range bi.CondSignals {
			if ctrl[s] {
				regs = append(regs, s)
			}
		}
		c.branchRegs[bi.ID] = regs
	}
	return c
}

// Name implements Monitor.
func (c *CFGCov) Name() string { return "symbfuzz-cfg" }

// Branch implements Monitor. The event buffer is hard-capped at
// maxEventCap per drain window; events past the cap are dropped and
// counted in Dropped rather than silently discarded, so the engine can
// surface a cov_events_dropped metric and warn.
func (c *CFGCov) Branch(id, arm int) {
	if len(c.events) >= maxEventCap {
		c.Dropped++
		return
	}
	c.events = append(c.events, [2]int{id, arm})
}

// maxEventCap bounds the branch-event buffer. A cycle with an
// unusually deep branch cascade (or a burst of cycles before a Sample)
// would otherwise balloon the buffer; capping it keeps a long
// campaign's footprint proportional to a typical cycle instead of its
// worst one. Overflow is counted, not silent (see Branch/Dropped).
const maxEventCap = 4096

// EventCap exposes the branch-event buffer cap (engine warnings).
const EventCap = maxEventCap

// drainEvents empties the event buffer, releasing oversized backing
// arrays instead of retaining them for the rest of the run.
func (c *CFGCov) drainEvents() {
	if cap(c.events) > maxEventCap {
		c.events = nil
		return
	}
	c.events = c.events[:0]
}

// nodeKeyOf renders a cluster's current control-register valuation.
func nodeKeyOf(g *cfg.Graph, s sim.DUV) string {
	key := ""
	for _, cr := range g.Regs {
		key += s.Get(cr.Sig.Index).BitString() + "|"
	}
	return key
}

// tupleKeyOf renders an interaction tuple: the branch arm and the
// valuations of the control registers the branch reads.
func tupleKeyOf(id, arm int, regs []int, s sim.DUV) string {
	tuple := fmt.Sprintf("b%d.%d", id, arm)
	for _, ridx := range regs {
		tuple += "|" + s.Get(ridx).BitString()
	}
	return tuple
}

// appendWords appends the word planes of each signal to buf. Widths
// are fixed per signal, so for a fixed signal list the bytes identify
// the four-state valuation exactly, as the rendered key does.
func appendWords(buf []byte, s sim.DUV, sigs []int) []byte {
	for _, sig := range sigs {
		a, b := s.Words(sig)
		for _, w := range a {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		for _, w := range b {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	return buf
}

// initTables builds the intern and guard tables on first use.
func (c *CFGCov) initTables() {
	if c.tabs != nil {
		return
	}
	c.tabs = make([]internTab, len(c.P.Graphs))
	for gi, g := range c.P.Graphs {
		t := &c.tabs[gi]
		t.ids = map[string]int32{}
		for _, cr := range g.Regs {
			t.regs = append(t.regs, cr.Sig.Index)
		}
		t.selfEdge = make([]int, len(g.Nodes))
		for i := range t.selfEdge {
			t.selfEdge[i] = -1
		}
		for _, e := range g.Edges {
			if e.From == e.To && t.selfEdge[e.From] < 0 {
				t.selfEdge[e.From] = e.ID
			}
		}
	}
	c.edgeGuard = map[dynEdge]struct{}{}
	c.tupleSeen = map[string]struct{}{}
	c.lastTuple = make([][]byte, len(c.branchRegs))
}

// lookup maps cluster gi's current valuation to its intern ID, static
// node and rendered key. A valuation is rendered only on its first
// sighting; with the intern table full it is rendered every time and
// returned with ID -1.
func (c *CFGCov) lookup(gi int, s sim.DUV) (id int32, node int, key string) {
	t := &c.tabs[gi]
	c.buf = appendWords(c.buf[:0], s, t.regs)
	// Most clusters hold their valuation from one cycle to the next, so
	// the previous entry is tried before the table.
	id = c.prevID[gi]
	ok := id >= 0 && t.entries[id].packed == string(c.buf)
	if !ok {
		id, ok = t.ids[string(c.buf)]
	}
	if ok {
		e := &t.entries[id]
		return id, e.node, e.key
	}
	g := c.P.Graphs[gi]
	key = nodeKeyOf(g, s)
	node = -1
	if nid, ok := g.ByKey[canonKey(key)]; ok {
		node = nid
	}
	if len(t.entries) >= maxTable {
		c.Overflow++
		return -1, node, key
	}
	id = int32(len(t.entries))
	packed := string(c.buf)
	t.entries = append(t.entries, internEntry{node: node, key: key, packed: packed})
	t.ids[packed] = id
	return id, node, key
}

// noteDynNode records an off-graph valuation, once per interned entry.
func (c *CFGCov) noteDynNode(gi int, id int32, key string) {
	if id >= 0 {
		e := &c.tabs[gi].entries[id]
		if e.noted {
			return
		}
		e.noted = true
	}
	addBounded(c.DynNodes, fmt.Sprintf("g%d:%s", gi, key), &c.Overflow)
}

// noteDynEdge records an off-graph transition from the cluster's
// previous valuation to the current one, once per interned pair.
func (c *CFGCov) noteDynEdge(gi int, id int32, key string) {
	from := c.prevID[gi]
	if from >= 0 && id >= 0 {
		if from == id {
			return
		}
		k := dynEdge{int32(gi), from, id}
		if _, ok := c.edgeGuard[k]; ok {
			return
		}
		if len(c.edgeGuard) < maxTable {
			c.edgeGuard[k] = struct{}{}
		} else {
			c.Overflow++
		}
	} else if key == c.prevKey[gi] {
		return
	}
	addBounded(c.DynEdges, fmt.Sprintf("g%d:%s>%s", gi, c.prevKey[gi], key), &c.Overflow)
}

// addBounded inserts k into a diagnostic set holding fewer than
// maxTable entries, counting the insert in overflow otherwise.
func addBounded(m map[string]bool, k string, overflow *uint64) {
	if m[k] {
		return
	}
	if len(m) >= maxTable {
		*overflow++
		return
	}
	m[k] = true
}

// Sample implements Monitor: map the cycle onto every cluster graph
// (Alg. 1 l.9) and record the interaction tuples.
func (c *CFGCov) Sample(s sim.DUV) {
	c.initTables()
	for gi, g := range c.P.Graphs {
		id, nid, key := c.lookup(gi, s)
		if nid >= 0 {
			if seen := c.NodesSeen[gi]; !seen[nid] {
				seen[nid] = true
			}
		} else {
			c.noteDynNode(gi, id, key)
		}
		if c.hasPrev {
			eid := -1
			if pn := c.prevNode[gi]; pn >= 0 && nid >= 0 {
				if pn == nid {
					eid = c.tabs[gi].selfEdge[nid]
				} else {
					for _, out := range g.Nodes[pn].Out {
						if g.Edges[out].To == nid {
							eid = out
							break
						}
					}
				}
			}
			if eid >= 0 {
				c.addEdge(gi, eid)
			} else {
				c.noteDynEdge(gi, id, key)
			}
		}
		c.prevKey[gi] = key
		c.prevID[gi] = id
		c.prevNode[gi] = nid
	}
	// Interaction tuples: each branch arm exercised this cycle paired
	// with the valuations of the control registers the branch reads.
	for _, ev := range c.events {
		id, arm := ev[0], ev[1]
		var regs []int
		var last *[]byte
		if id < len(c.branchRegs) {
			regs, last = c.branchRegs[id], &c.lastTuple[id]
		}
		buf := binary.LittleEndian.AppendUint64(c.buf[:0], uint64(id))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(arm))
		c.buf = appendWords(buf, s, regs)
		// A branch usually repeats its last tuple, so check that first.
		if last != nil && bytes.Equal(*last, c.buf) {
			continue
		}
		if _, ok := c.tupleSeen[string(c.buf)]; !ok {
			c.Tuples[tupleKeyOf(id, arm, regs, s)] = true
			if len(c.tupleSeen) < maxTable {
				c.tupleSeen[string(c.buf)] = struct{}{}
			} else {
				c.Overflow++
			}
		}
		if last != nil {
			*last = append((*last)[:0], c.buf...)
		}
	}
	c.drainEvents()
	c.hasPrev = true
}

// addEdge is the one insert path into EdgesSeen: it records static
// edge eid of cluster gi and, the first time, takes it off its source
// node's uncovered count. IDs outside the graph (a malformed merge
// source) are recorded but counted nowhere.
func (c *CFGCov) addEdge(gi, eid int) {
	seen := c.EdgesSeen[gi]
	if seen[eid] {
		return
	}
	seen[eid] = true
	if c.uncov != nil {
		if edges := c.P.Graphs[gi].Edges; eid >= 0 && eid < len(edges) {
			c.uncov[gi][edges[eid].From]--
		}
	}
}

// UncoveredOut is the number of node's static out-edges in cluster gi
// not yet exercised: len(Graph.UncoveredFrom(node, EdgesSeen[gi])),
// kept as a count. It is 0 for an out-of-range node and on monitors not
// built by NewCFGCov.
func (c *CFGCov) UncoveredOut(gi, node int) int {
	if gi < 0 || gi >= len(c.uncov) || node < 0 || node >= len(c.uncov[gi]) {
		return 0
	}
	return int(c.uncov[gi][node])
}

// canonKey maps a four-state key to the graph's canonical (X->0) key.
func canonKey(k string) string {
	out := []byte(k)
	for i, ch := range out {
		if ch == 'x' || ch == 'z' {
			out[i] = '0'
		}
	}
	return string(out)
}

// Points implements Monitor: interaction tuples plus covered static
// structure. Dynamic (off-graph) observations are excluded to keep the
// metric bounded on large designs.
func (c *CFGCov) Points() int {
	n := len(c.Tuples)
	for i := range c.P.Graphs {
		n += len(c.EdgesSeen[i]) + len(c.NodesSeen[i])
	}
	return n
}

// EdgeCoverage returns (covered, total) static edges across clusters.
func (c *CFGCov) EdgeCoverage() (int, int) {
	cov, tot := 0, 0
	for i, g := range c.P.Graphs {
		cov += len(c.EdgesSeen[i])
		tot += len(g.Edges)
	}
	return cov, tot
}

// NodeCoverage returns (covered, total) static nodes across clusters.
func (c *CFGCov) NodeCoverage() (int, int) {
	cov, tot := 0, 0
	for i, g := range c.P.Graphs {
		cov += len(c.NodesSeen[i])
		tot += len(g.Nodes)
	}
	return cov, tot
}

// AllEdgesCovered reports Algorithm 1's termination condition: every
// static edge of every cluster exercised at least once.
func (c *CFGCov) AllEdgesCovered() bool {
	covered, total := c.EdgeCoverage()
	return total > 0 && covered >= total
}

// Merge unions another monitor's observed coverage into c. Both
// monitors must watch isomorphic partitions (the same design built with
// the same options): static hits are matched positionally by (cluster,
// ID), which holds because partition construction is deterministic.
//
// Merging is a set union — idempotent and commutative — so an edge
// covered both locally and globally counts exactly once and repeated
// publishes of the same monitor are safe: Merge(a, a) leaves a
// unchanged, and Points never double-counts. The Dropped counter and
// the position-tracking state (prevNode, the event buffer) are local
// simulation artifacts, not coverage, and are deliberately untouched.
// Merge must not run concurrently with either monitor's Sample.
func (c *CFGCov) Merge(o *CFGCov) {
	if o == nil {
		return
	}
	for gi := range c.NodesSeen {
		if gi >= len(o.NodesSeen) {
			break
		}
		for id := range o.NodesSeen[gi] {
			c.NodesSeen[gi][id] = true
		}
		for id := range o.EdgesSeen[gi] {
			c.addEdge(gi, id)
		}
	}
	for k := range o.DynNodes {
		c.DynNodes[k] = true
	}
	for k := range o.DynEdges {
		c.DynEdges[k] = true
	}
	for k := range o.Tuples {
		c.Tuples[k] = true
	}
}

// PrevNode returns the last mapped node of cluster gi (-1 off-graph).
func (c *CFGCov) PrevNode(gi int) int {
	if gi < 0 || gi >= len(c.prevNode) {
		return -1
	}
	return c.prevNode[gi]
}

// EdgeSeen reports whether cluster gi's edge eid has been exercised.
func (c *CFGCov) EdgeSeen(gi, eid int) bool { return c.EdgesSeen[gi][eid] }

// ResetPosition clears the previous-node tracking after a rollback so
// the rollback jump is not recorded as a spurious edge.
func (c *CFGCov) ResetPosition() {
	c.hasPrev = false
	for i := range c.prevNode {
		c.prevNode[i] = -1
		c.prevID[i] = -1
		c.prevKey[i] = ""
	}
	c.drainEvents()
}

// SyncPosition re-primes the position tracking to the simulator's
// current state after a checkpoint restore, so the first transition out
// of the restored state is credited as an edge without recording the
// rollback jump itself.
func (c *CFGCov) SyncPosition(s sim.DUV) {
	c.initTables()
	for gi := range c.P.Graphs {
		c.prevID[gi], c.prevNode[gi], c.prevKey[gi] = c.lookup(gi, s)
	}
	c.hasPrev = true
	c.drainEvents()
}

// ---- RFuzz mux coverage ----

// MuxCov counts distinct (branch, arm) pairs: the FPGA mux-select
// coverage of RFuzz.
type MuxCov struct {
	Seen  map[[2]int]bool
	total int
}

// NewMuxCov builds the monitor; total arms come from the design's
// branch metadata.
func NewMuxCov(totalArms int) *MuxCov {
	return &MuxCov{Seen: map[[2]int]bool{}, total: totalArms}
}

// Name implements Monitor.
func (m *MuxCov) Name() string { return "rfuzz-mux" }

// Branch implements Monitor.
func (m *MuxCov) Branch(id, arm int) { m.Seen[[2]int{id, arm}] = true }

// Sample implements Monitor (mux coverage needs no cycle sampling).
func (m *MuxCov) Sample(sim.DUV) {}

// Points implements Monitor.
func (m *MuxCov) Points() int { return len(m.Seen) }

// Total returns the total arm population.
func (m *MuxCov) Total() int { return m.total }

// ---- DifuzzRTL register coverage ----

// RegCov tracks, per control register, the set of distinct values the
// register has held — DifuzzRTL's per-register coverage maps. Keeping
// the maps per register (instead of hashing the joint valuation) is
// what gives the tool a usable gradient on multi-IP designs: progress
// on one FSM's counter registers as new coverage regardless of what the
// other IPs are doing.
type RegCov struct {
	Regs []int // signal indices
	Seen []map[string]bool
}

// NewRegCov builds the monitor over the given control registers.
func NewRegCov(regs []int) *RegCov {
	seen := make([]map[string]bool, len(regs))
	for i := range seen {
		seen[i] = map[string]bool{}
	}
	return &RegCov{Regs: regs, Seen: seen}
}

// Name implements Monitor.
func (r *RegCov) Name() string { return "difuzzrtl-reg" }

// Branch implements Monitor (unused by this model).
func (r *RegCov) Branch(int, int) {}

// Sample implements Monitor.
func (r *RegCov) Sample(s sim.DUV) {
	for i, idx := range r.Regs {
		r.Seen[i][s.Get(idx).Key()] = true
	}
}

// Points implements Monitor: total distinct values across registers.
func (r *RegCov) Points() int {
	n := 0
	for _, m := range r.Seen {
		n += len(m)
	}
	return n
}

// ---- HWFP / AFL edge-hash coverage ----

// EdgeHashCov hashes consecutive branch events AFL-style (prev XOR cur
// into a bounded bitmap), the software-fuzzer feedback HWFP inherits.
type EdgeHashCov struct {
	Map  []bool
	prev int
	hits int
}

// NewEdgeHashCov builds a monitor with an AFL-style 64k bitmap.
func NewEdgeHashCov() *EdgeHashCov {
	return &EdgeHashCov{Map: make([]bool, 1<<16)}
}

// Name implements Monitor.
func (e *EdgeHashCov) Name() string { return "hwfp-edgehash" }

// Branch implements Monitor.
func (e *EdgeHashCov) Branch(id, arm int) {
	cur := (id*7 + arm) & 0xFFFF
	slot := (e.prev ^ cur) & 0xFFFF
	if !e.Map[slot] {
		e.Map[slot] = true
		e.hits++
	}
	e.prev = cur >> 1
}

// Sample implements Monitor.
func (e *EdgeHashCov) Sample(sim.DUV) { e.prev = 0 }

// Points implements Monitor.
func (e *EdgeHashCov) Points() int { return e.hits }

// ---- composite ----

// Multi fans a single tracer/sampler out to several monitors, so a
// fuzzer's own feedback model and the evaluation's reference metric can
// observe the same run.
type Multi struct {
	Monitors []Monitor
}

// NewMulti bundles monitors.
func NewMulti(ms ...Monitor) *Multi { return &Multi{Monitors: ms} }

// Name implements Monitor.
func (m *Multi) Name() string { return "multi" }

// Branch implements Monitor.
func (m *Multi) Branch(id, arm int) {
	for _, mm := range m.Monitors {
		mm.Branch(id, arm)
	}
}

// Sample implements Monitor.
func (m *Multi) Sample(s sim.DUV) {
	for _, mm := range m.Monitors {
		mm.Sample(s)
	}
}

// Points implements Monitor: the first monitor is the primary feedback.
func (m *Multi) Points() int {
	if len(m.Monitors) == 0 {
		return 0
	}
	return m.Monitors[0].Points()
}
