package cov

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// snapshotCounts digests a monitor's set sizes for equality checks.
func snapshotCounts(c *CFGCov) [6]int {
	nodes, _ := c.NodeCoverage()
	edges, _ := c.EdgeCoverage()
	return [6]int{c.Points(), nodes, edges, len(c.Tuples), len(c.DynNodes), len(c.DynEdges)}
}

// TestCFGCovMergeIdempotent pins the parallel-merge contract: merging
// a monitor into itself (or re-publishing the same coverage) must not
// change anything — an edge covered both locally and globally counts
// exactly once.
func TestCFGCovMergeIdempotent(t *testing.T) {
	f := setup(t)
	c := NewCFGCov(f.g)
	Attach(f.s, c)
	drive(t, f, 1, 2, 0, 0, 1, 3, 0)

	before := snapshotCounts(c)
	if before[0] == 0 {
		t.Fatal("fixture produced no coverage")
	}
	c.Merge(c)
	if after := snapshotCounts(c); after != before {
		t.Fatalf("merge(a, a) changed coverage: %v -> %v", before, after)
	}

	// Repeated publishes of the same monitor into a global view are a
	// no-op after the first.
	global := NewCFGCov(f.g)
	global.Merge(c)
	first := snapshotCounts(global)
	if first != before {
		t.Fatalf("merge into empty lost coverage: %v != %v", first, before)
	}
	global.Merge(c)
	if again := snapshotCounts(global); again != first {
		t.Fatalf("second publish double-counted: %v -> %v", first, again)
	}
}

// TestCFGCovMergeUnion checks the merge is a true set union: distinct
// local coverage combines without double-counting the overlap, and the
// result is order-independent.
func TestCFGCovMergeUnion(t *testing.T) {
	fa := setup(t)
	a := NewCFGCov(fa.g)
	Attach(fa.s, a)
	drive(t, fa, 1, 2, 0) // path 0->1->2->3

	fb := setup(t)
	b := NewCFGCov(fb.g)
	Attach(fb.s, b)
	drive(t, fb, 1, 3, 0) // path 0->1->3->0 (overlaps 0->1)

	union := func(first, second *CFGCov) [6]int {
		m := NewCFGCov(fa.g)
		m.Merge(first)
		m.Merge(second)
		return snapshotCounts(m)
	}
	ab, ba := union(a, b), union(b, a)
	if ab != ba {
		t.Fatalf("merge is order-dependent: a,b=%v b,a=%v", ab, ba)
	}
	if ab[0] < snapshotCounts(a)[0] || ab[0] < snapshotCounts(b)[0] {
		t.Fatalf("union lost points: %v vs a=%v b=%v", ab, snapshotCounts(a), snapshotCounts(b))
	}
	sum := snapshotCounts(a)[0] + snapshotCounts(b)[0]
	if ab[0] >= sum {
		t.Fatalf("overlapping coverage double-counted: union=%d, sum=%d (paths share edges)", ab[0], sum)
	}
}

// assertUncoveredOut checks every node's maintained count of uncovered
// out-edges against a recount from EdgesSeen.
func assertUncoveredOut(t *testing.T, where string, c *CFGCov) {
	t.Helper()
	for gi, g := range c.P.Graphs {
		for n := range g.Nodes {
			if got, want := c.UncoveredOut(gi, n), len(g.UncoveredFrom(n, c.EdgesSeen[gi])); got != want {
				t.Fatalf("%s: cluster %d node %d: UncoveredOut %d, recount %d", where, gi, n, got, want)
			}
		}
	}
}

// TestUncoveredOutMatchesRecount is the differential test for the
// per-node uncovered-edge counts: after random Sample sequences with
// snapshot rollbacks, and after merges from a NewCFGCov monitor and
// from struct-literal monitors (the wire-decoded shape), every count
// equals a recount of the node's out-edges missing from EdgesSeen.
func TestUncoveredOutMatchesRecount(t *testing.T) {
	run := func(seed int64, cycles int) *CFGCov {
		f := newSoC(t, "compiled")
		c := NewCFGCov(f.part)
		Attach(f.s, c)
		assertUncoveredOut(t, "fresh monitor", c)
		rng := rand.New(rand.NewSource(seed))
		snap := f.s.Snapshot()
		for i := 1; i <= cycles; i++ {
			f.step(t, rng)
			if i%150 == 0 {
				f.s.Restore(snap)
				c.SyncPosition(f.s)
			}
			if i%100 == 0 {
				assertUncoveredOut(t, fmt.Sprintf("seed %d cycle %d", seed, i), c)
			}
		}
		if covered, _ := c.EdgeCoverage(); covered == 0 {
			t.Fatalf("seed %d covered no edges", seed)
		}
		return c
	}
	a, b := run(3, 1200), run(4, 1200)

	m := NewCFGCov(a.P)
	for _, step := range []struct {
		name string
		src  *CFGCov
	}{
		{"merge a", a},
		{"merge b", b},
		{"merge a again", a},
	} {
		m.Merge(step.src)
		assertUncoveredOut(t, step.name, m)
	}

	// Struct-literal monitors carry sets and no counts: a random half of
	// every cluster's edges, then every edge.
	rng := rand.New(rand.NewSource(9))
	literal := func(keep func(eid int) bool) *CFGCov {
		lit := &CFGCov{
			NodesSeen: make([]map[int]bool, len(m.P.Graphs)),
			EdgesSeen: make([]map[int]bool, len(m.P.Graphs)),
			Tuples:    map[string]bool{},
		}
		for gi, g := range m.P.Graphs {
			lit.NodesSeen[gi], lit.EdgesSeen[gi] = map[int]bool{}, map[int]bool{}
			for _, e := range g.Edges {
				if keep(e.ID) {
					lit.EdgesSeen[gi][e.ID] = true
				}
			}
		}
		return lit
	}
	half := literal(func(int) bool { return rng.Intn(2) == 0 })
	m.Merge(half)
	assertUncoveredOut(t, "merge struct literal (half)", m)

	// Merging into a struct literal (the publish path's pending sets)
	// keeps working; it has no counts.
	all := literal(func(int) bool { return true })
	half.Merge(all)
	if !maps.Equal(half.EdgesSeen[0], all.EdgesSeen[0]) {
		t.Fatal("merge into a struct literal lost edges")
	}
	if n := half.UncoveredOut(0, 0); n != 0 {
		t.Fatalf("struct-literal monitor reports UncoveredOut %d, want 0", n)
	}

	m.Merge(all)
	assertUncoveredOut(t, "merge struct literal (all)", m)
	for gi, g := range m.P.Graphs {
		for n := range g.Nodes {
			if c := m.UncoveredOut(gi, n); c != 0 {
				t.Fatalf("every edge merged, but cluster %d node %d has %d uncovered", gi, n, c)
			}
		}
	}
}
