package core

import (
	"runtime"
	"testing"

	"repro/internal/designs"
	"repro/internal/uvm"
)

// TestSteadyCycleZeroAlloc pins the allocation-free vector path, the
// engine-level counterpart of cov's TestSampleZeroAllocOnRevisit: on
// compiled opentitan_mini with all fourteen properties, coverage and
// the monitor's scoreboard bound, re-driving an item sequence the
// campaign has already seen costs no allocation per vector — not in
// the sequencer, the driver, the kernel's settle, the coverage sample,
// the property check or the monitor.
func TestSteadyCycleZeroAlloc(t *testing.T) {
	b := designs.OpenTitanMini(nil)
	d, err := b.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Properties) != 14 {
		t.Fatalf("%d properties, want 14", len(b.Properties))
	}
	e, err := New(d, b.Properties, Config{MaxVectors: 1, Seed: 5, SimBackend: "compiled"})
	if err != nil {
		t.Fatal(err)
	}
	env := e.Env()
	seq, drv := env.Agent.Sequencer, env.Agent.Driver
	// Long enough to wrap the scoreboard ring (4096 observations of two
	// output ports), so every slot it reuses already has its words.
	const n = 2500
	// Both passes start the way a snapshot rollback leaves the engine,
	// so the second sees exactly the states, edges and property
	// histories the first did.
	snap := env.Sim.Snapshot()
	rewind := func() {
		env.Sim.Restore(snap)
		e.Coverage().SyncPosition(env.Sim)
		e.resetCheckerHistory()
	}
	rewind()
	items := make([]*uvm.Item, n)
	for i := range items {
		items[i] = seq.NextItem()
		if err := drv.Apply(items[i]); err != nil {
			t.Fatal(err)
		}
	}
	rewind()
	for _, it := range items {
		seq.PinNext(it)
	}
	step := func() {
		if err := drv.Apply(seq.NextItem()); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun rounds down, so the first 1,000 vectors are also
	// counted exactly.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 1000; i++ {
		step()
	}
	runtime.ReadMemStats(&m1)
	if d := m1.Mallocs - m0.Mallocs; d != 0 {
		t.Fatalf("re-driving a seen sequence: %d allocations over 1,000 vectors, want 0", d)
	}
	if allocs := testing.AllocsPerRun(n-1001, step); allocs != 0 {
		t.Fatalf("re-driving a seen sequence: %v allocations per vector, want 0", allocs)
	}
	if seq.PendingPinned() != 0 {
		t.Fatalf("%d pinned items left over", seq.PendingPinned())
	}
}

// TestTargetSelectionZeroAlloc pins guidance target selection: on an
// engine warmed by an I=40/Th=2 campaign, ranking the in-place
// candidates and searching every cluster for a backtrack checkpoint,
// from the current node and from the whole checkpoint store, allocate
// nothing.
func TestTargetSelectionZeroAlloc(t *testing.T) {
	d, err := designs.OpenTitanMini(nil).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d, nil, Config{
		Interval: 40, Threshold: 2, MaxVectors: 4000, Seed: 5,
		SimBackend: "compiled", UseSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SymbolicInvocations == 0 || e.nck == 0 {
		t.Fatalf("campaign never guided or recorded no checkpoints: %s", rep)
	}
	found := 0
	sel := func() {
		found = len(e.inPlaceCandidates())
		for gi := range e.part.Graphs {
			if e.findTarget(gi, e.cover.PrevNode(gi)) != nil {
				found++
			}
			if e.findTarget(gi, -1) != nil {
				found++
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, sel); allocs != 0 {
		t.Fatalf("target selection: %v allocations per call, want 0", allocs)
	}
	if found == 0 {
		t.Fatal("target selection found nothing; the pin measured an empty search")
	}
}
