package prof_test

// Engine-level acceptance tests for the cost profiler: the canonical
// ledger is a pure function of the campaign trajectory, and profiling
// is strictly observational — it never changes the trajectory it
// measures. These live in an external test package because internal/
// core imports internal/prof.

import (
	"bytes"
	"encoding/json"
	"testing"

	symbfuzz "repro"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/par"
	"repro/internal/prof"
)

func mailbox() *designs.Benchmark {
	return designs.IPBenchmark(designs.Mailbox(), true)
}

func testConfig(seed int64) core.Config {
	return core.Config{
		Interval:              50,
		Threshold:             2,
		MaxVectors:            3000,
		Seed:                  seed,
		UseSnapshots:          true,
		ContinueAfterCoverage: true,
	}
}

// normalizeReport strips the fields that legitimately vary across runs
// of the same seed (wall clock, cache hit/miss split) — the par/dist
// test idiom.
func normalizeReport(r *core.Report) core.Report {
	c := *r
	c.Timings.TotalNS = 0
	c.Timings.FuzzNS = 0
	c.Timings.SymbolicNS = 0
	c.Timings.RollbackNS = 0
	c.Timings.VCDNS = 0
	c.Timings.Solve.BlastNS = 0
	c.Timings.Solve.CDCLNS = 0
	c.SolveCacheHits += c.SolveCacheMisses
	c.SolveCacheMisses = 0
	return c
}

func runProfiled(t *testing.T, seed int64) (*core.Report, *prof.Dump) {
	t.Helper()
	b := mailbox()
	d, err := b.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	cc := testConfig(seed)
	p := prof.New(prof.Options{})
	cc.Prof = p
	eng, err := core.New(d, b.Properties, cc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, prof.NewDump(b.Name, seed, p.Ledgers())
}

func canonicalJSON(t *testing.T, d *prof.Dump) []byte {
	t.Helper()
	out, err := d.Canonical().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLedgerDeterminism runs the same campaign twice: the canonical
// dumps must be byte-identical, and the ledger must actually have
// attributed work (sim evals, solver dispatches, unlocked coverage).
func TestLedgerDeterminism(t *testing.T) {
	_, d1 := runProfiled(t, 7)
	_, d2 := runProfiled(t, 7)
	c1, c2 := canonicalJSON(t, d1), canonicalJSON(t, d2)
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonical ledger differs across identical campaigns:\n%s\nvs\n%s", c1, c2)
	}

	if d1.Totals.Evals == 0 {
		t.Error("no simulator evals attributed")
	}
	if d1.Totals.Dispatches == 0 {
		t.Error("no solver dispatches attributed")
	}
	if d1.Totals.Unlocked == 0 {
		t.Error("no unlocked coverage attributed to any solve")
	}
	if len(d1.Ranks) != 1 || len(d1.Ranks[0].Sim) == 0 {
		t.Fatalf("want one rank with a sim ledger, got %+v", d1.Ranks)
	}
	// Sim entries carry the levelization: sequential processes level
	// -1, combinational processes a settle depth >= 0.
	seq, comb := 0, 0
	for _, s := range d1.Ranks[0].Sim {
		switch {
		case s.Kind == "seq" && s.Level == -1:
			seq++
		case s.Kind == "comb" && s.Level >= 0:
			comb++
		default:
			t.Errorf("sim entry with inconsistent kind/level: %+v", s)
		}
	}
	if seq == 0 || comb == 0 {
		t.Errorf("want both process kinds in the sim ledger, got seq=%d comb=%d", seq, comb)
	}
	// The curve is cumulative in every component.
	curve := d1.Ranks[0].Curve
	if int64(len(curve)) != d1.Totals.Dispatches {
		t.Errorf("curve has %d points, want one per dispatch (%d)", len(curve), d1.Totals.Dispatches)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Clauses < curve[i-1].Clauses || curve[i].Unlocked < curve[i-1].Unlocked {
			t.Fatalf("curve not cumulative at %d: %+v -> %+v", i, curve[i-1], curve[i])
		}
	}
}

// TestProfilingIsTrajectoryNeutral pins the -no-prof contract: the
// report of a profiled campaign equals the unprofiled one, field for
// field, modulo wall clock.
func TestProfilingIsTrajectoryNeutral(t *testing.T) {
	profiled, _ := runProfiled(t, 7)

	b := mailbox()
	d, err := b.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(d, b.Properties, testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	pj, err := json.Marshal(normalizeReport(profiled))
	if err != nil {
		t.Fatal(err)
	}
	nj, err := json.Marshal(normalizeReport(plain))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, nj) {
		t.Fatalf("profiling changed the campaign report:\nprofiled: %s\nplain:    %s", pj, nj)
	}
}

// TestParallelLedgerDeterminism runs a 2-worker campaign twice: the
// rank-merged canonical dump must be byte-identical across runs even
// though goroutine interleaving (and so the cache hit/miss split)
// differs.
func TestParallelLedgerDeterminism(t *testing.T) {
	run := func() *prof.Dump {
		b := mailbox()
		cc := testConfig(7)
		base := prof.New(prof.Options{})
		cc.Prof = base
		_, err := symbfuzz.FuzzParallel(b, par.Config{Config: cc, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return prof.NewDump(b.Name, cc.Seed, base.Ledgers())
	}
	d1, d2 := run(), run()
	c1, c2 := canonicalJSON(t, d1), canonicalJSON(t, d2)
	if !bytes.Equal(c1, c2) {
		t.Fatalf("2-worker canonical ledger not deterministic:\n%s\nvs\n%s", c1, c2)
	}
	if len(d1.Ranks) != 2 || d1.Ranks[0].Rank != 0 || d1.Ranks[1].Rank != 1 {
		t.Fatalf("want ranks [0 1], got %+v", d1.Ranks)
	}
}
