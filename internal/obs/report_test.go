package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// reportFixture is a schema-valid two-lane merged trace with one
// cross-rank chain: lane 1 solves (miss, +2 locally), lane 2 hits lane
// 1's cache entry and unlocks 6 more, and lane 2 also has a never-sat
// target. The interval spans, which carry the coverage curves, close
// each lane so its clock stays monotonic.
func reportFixture() []Event {
	interval := func(id string, w int, tns int64, vectors uint64, points int) Event {
		ev := spanEv(id, fmt.Sprintf("w%d", w), SpanInterval, w)
		ev.TNS, ev.Vectors, ev.Points = tns, vectors, points
		return ev
	}
	events := []Event{
		{Type: EvCampaignStart},
		spanEv("w1", "", SpanCampaign, 1),
		spanEv("w1.i0.s0", "w1.i0", SpanStagnate, 1),
		spanEv("w2", "", SpanCampaign, 2),
		spanEv("w2.i0.s0", "w2.i0", SpanStagnate, 2),
	}
	miss := spanEv("w1.i0.s1", "w1.i0.s0", SpanSolve, 1)
	miss.Cache, miss.Outcome, miss.Graph, miss.Edge = "miss", "sat", 0, 3
	miss.BlastNS, miss.SolveNS, miss.Conflicts = 1000, 2000, 5
	miss.SlicedVars = 40
	missApply := spanEv("w1.i0.s2", "w1.i0.s1", SpanPlanApply, 1)
	missApply.Cache = "miss"
	missDelta := spanEv("w1.i0.s3", "w1.i0.s2", SpanCovDelta, 1)
	missDelta.Gained = 2

	hit := spanEv("w2.i0.s1", "w2.i0.s0", SpanSolve, 2)
	hit.Cache, hit.Outcome, hit.Graph, hit.Edge = "hit", "sat", 0, 3
	hit.OriginWorker, hit.OriginSpan = 1, "w1.i0.s1"
	hit.BlastNS, hit.SolveNS = 1000, 2000 // canonical replayed stats
	hitApply := spanEv("w2.i0.s2", "w2.i0.s1", SpanPlanApply, 2)
	hitApply.Cache, hitApply.OriginWorker, hitApply.OriginSpan = "hit", 1, "w1.i0.s1"
	hitDelta := spanEv("w2.i0.s3", "w2.i0.s2", SpanCovDelta, 2)
	hitDelta.Gained = 6

	unsat := spanEv("w2.i0.s4", "w2.i0.s0", SpanSolve, 2)
	unsat.Outcome, unsat.Graph, unsat.Edge = "unsat", 1, 7
	unsat.Conflicts, unsat.SolveNS = 40, 900
	unsat.Infeasible = true

	events = append(events, miss, missApply, missDelta, hit, hitApply, hitDelta, unsat,
		interval("w1.i0", 1, 100, 500, 10),
		interval("w1.i1", 1, 200, 1000, 14),
		interval("w2.i0", 2, 150, 600, 11))
	events = append(events, Event{Type: EvCampaignEnd, TNS: 300, Vectors: 1600, Points: 20,
		SlicedVars: 40, InfeasibleTargets: 1})
	return events
}

func TestBuildCampaignReport(t *testing.T) {
	r, err := BuildCampaignReport(reportFixture())
	if err != nil {
		t.Fatal(err)
	}

	// Attribution: lane 1's solve gets its local +2 plus lane 2's +6
	// (the hit resolves to it); it is the top solve.
	if len(r.TopSolves) == 0 || r.TopSolves[0].Span != "w1.i0.s1" {
		t.Fatalf("top solves = %+v", r.TopSolves)
	}
	top := r.TopSolves[0]
	if top.Unlocked != 8 || top.Reuses != 1 {
		t.Errorf("top solve unlocked %d reuses %d, want 8 and 1", top.Unlocked, top.Reuses)
	}
	if top.SlicedVars != 40 {
		t.Errorf("top solve sliced vars %d, want 40", top.SlicedVars)
	}

	// The unsat target shows up in the unsolved table, flagged as
	// statically refuted.
	if len(r.Unsolved) != 1 || r.Unsolved[0].Graph != 1 || r.Unsolved[0].Edge != 7 || r.Unsolved[0].Attempts != 1 {
		t.Errorf("unsolved = %+v", r.Unsolved)
	}
	if r.Unsolved[0].Infeasible != 1 {
		t.Errorf("unsolved infeasible count %d, want 1", r.Unsolved[0].Infeasible)
	}

	// Slicing totals come off the campaign_end record.
	if r.Slicing.SlicedVars != 40 || r.Slicing.InfeasibleTargets != 1 {
		t.Errorf("slicing summary = %+v, want {40 1}", r.Slicing)
	}

	// Per-lane breakdown: lane 2's hit costs it no solver wall time;
	// its unsat solve does.
	var lane2 *LaneBreakdown
	for i := range r.Lanes {
		if r.Lanes[i].Lane == 2 {
			lane2 = &r.Lanes[i]
		}
	}
	if lane2 == nil || lane2.Solves != 2 || lane2.CacheHits != 1 || lane2.CDCLNS != 900 {
		t.Errorf("lane 2 breakdown = %+v", lane2)
	}

	// Coverage curves: one per lane, one sample per interval span, in
	// the (vectors, points) sequence the lane's intervals closed with.
	type vp struct {
		v uint64
		p int
	}
	for lane, want := range map[int][]vp{1: {{500, 10}, {1000, 14}}, 2: {{600, 11}}} {
		var got []vp
		for _, s := range r.Curves[lane] {
			got = append(got, vp{s.Vectors, s.Points})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lane %d curve = %v, want %v", lane, got, want)
		}
	}
	if len(r.Curves) != 2 {
		t.Errorf("curves = %+v, want lanes 1 and 2 only", r.Curves)
	}

	// The summary is the schema check's.
	if s := r.Summary; s.Events != 16 || s.FinalVectors != 1600 || s.FinalPoints != 20 || s.WallNS != 300 || s.Workers != 2 {
		t.Errorf("summary = %+v", s)
	}

	// The cross-rank chain is reconstructed.
	if r.Chain == nil || r.Chain.Solve != "w1.i0.s1" || r.Chain.HitSolve != "w2.i0.s1" || r.Chain.Gained != 6 {
		t.Errorf("chain = %+v", r.Chain)
	}
}

func TestRenderHTMLDeterministic(t *testing.T) {
	events := reportFixture()
	render := func() []byte {
		r, err := BuildCampaignReport(events)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := RenderHTML(&buf, r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("HTML report is not byte-identical across renders of the same trace")
	}
	html := string(a)
	for _, want := range []string{
		"<!DOCTYPE html>", "<svg", "w1.i0.s1",
		"Cross-process causal chain", "Unsolved targets", "Per-rank solver time",
		"Cone-of-influence slicing removed <b>40</b>",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
}

func TestRenderTextReport(t *testing.T) {
	r, err := BuildCampaignReport(reportFixture())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderText(&buf, r)
	out := buf.String()
	for _, want := range []string{"campaign report", "top solves", "unsolved targets", "per-rank solver time", "w1.i0.s1",
		"slicing: 40 solver vars sliced away, 1 targets refuted statically"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q in:\n%s", want, out)
		}
	}
}
