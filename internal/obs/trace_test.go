package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestJSONLTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	tr.Emit(&Event{TNS: 0, Type: EvCampaignStart})
	tr.Emit(&Event{TNS: 20, Type: EvSpan, Vectors: 50, Points: 3, DurNS: 20, Count: 50,
		Span: "w0.i0", Parent: "w0", Kind: SpanInterval})
	tr.Emit(&Event{TNS: 25, Type: EvRollback, Vectors: 50, Points: 3, Outcome: "snapshot"})
	tr.Emit(&Event{TNS: 30, Type: EvSpan, Vectors: 50, Points: 3,
		Span: "w0.i0.s0", Parent: "w0.i0", Kind: SpanSolve,
		Graph: 1, Outcome: "sat", Conflicts: 2, Decisions: 9, Clauses: 40, Vars: 12,
		BlastNS: 7, SolveNS: 3, DurNS: 10})
	tr.Emit(&Event{TNS: 40, Type: EvBugFound, Vectors: 60, Points: 4, Property: "no_leak"})
	tr.Emit(&Event{TNS: 50, Type: EvCampaignEnd, Vectors: 60, Points: 4})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := ValidateTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 6 || sum.Bugs != 1 {
		t.Errorf("events/bugs = %d/%d, want 6/1", sum.Events, sum.Bugs)
	}
	if sum.FinalVectors != 60 || sum.FinalPoints != 4 || sum.WallNS != 50 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.ByType[EvSpan] != 2 || sum.ByType[EvRollback] != 1 {
		t.Errorf("by-type = %v", sum.ByType)
	}
}

func TestValidateTraceRejections(t *testing.T) {
	cases := []struct {
		name  string
		trace string
		want  string
	}{
		{"empty", "", "empty stream"},
		{"bad json", "{nope\n", "invalid JSON"},
		{"unknown type", `{"t_ns":0,"type":"campaign_start"}` + "\n" + `{"t_ns":1,"type":"warp_drive"}` + "\n", "unknown event type"},
		{"bad first", `{"t_ns":0,"type":"bug_found"}` + "\n", `first event is "bug_found"`},
		{"time regress", `{"t_ns":5,"type":"campaign_start"}` + "\n" + `{"t_ns":4,"type":"campaign_end"}` + "\n", "timestamp regressed"},
		{"vector regress", `{"t_ns":0,"type":"campaign_start","vectors":10}` + "\n" + `{"t_ns":1,"type":"campaign_end","vectors":9}` + "\n", "vector count regressed"},
		{"no end", `{"t_ns":0,"type":"campaign_start"}` + "\n", `want "campaign_end"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ValidateTrace(strings.NewReader(c.trace))
			if err == nil {
				t.Fatal("accepted invalid trace")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestTraceRejectsRetiredVocabulary pins the one-record-per-phase
// vocabulary: the flat phase events that used to repeat the spans'
// payloads, and the stimulus_batch span the interval span absorbed, are
// unknown to the schema.
func TestTraceRejectsRetiredVocabulary(t *testing.T) {
	for _, typ := range []string{"interval_start", "interval_end", "stagnation_detected", "solver_dispatch", "plan_applied"} {
		trace := `{"t_ns":0,"type":"campaign_start"}` + "\n" +
			`{"t_ns":1,"type":"` + typ + `"}` + "\n" +
			`{"t_ns":2,"type":"campaign_end"}` + "\n"
		if _, err := ValidateTrace(strings.NewReader(trace)); err == nil || !strings.Contains(err.Error(), "unknown event type") {
			t.Errorf("%s: err = %v, want unknown event type", typ, err)
		}
	}
	events := []Event{
		{Type: EvCampaignStart},
		spanEv("w0.i0", "w0", SpanInterval, 0),
		spanEv("w0.i0.s0", "w0.i0", "stimulus_batch", 0),
		spanEv("w0", "", SpanCampaign, 0),
		{Type: EvCampaignEnd},
	}
	if _, err := ValidateSpans(events); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("stimulus_batch span: err = %v, want unknown kind", err)
	}
	if _, err := BuildCampaignReport(events); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("report over a stimulus_batch span: err = %v, want unknown kind", err)
	}
}

func TestValidateTraceSkipsBlankLines(t *testing.T) {
	trace := `{"t_ns":0,"type":"campaign_start"}` + "\n\n" + `{"t_ns":1,"type":"campaign_end"}` + "\n"
	sum, err := ValidateTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 2 {
		t.Errorf("events = %d, want 2", sum.Events)
	}
}

// errWriter fails after n writes, exercising the tracer's sticky error.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, bytes.ErrTooLarge
	}
	w.n--
	return len(p), nil
}

func TestJSONLTracerStickyError(t *testing.T) {
	tr := NewJSONLTracer(&errWriter{n: 0})
	for i := 0; i < 64*1024; i++ { // overflow the 64KB buffer to force a flush
		tr.Emit(&Event{TNS: int64(i), Type: EvRollback})
	}
	if err := tr.Close(); err == nil {
		t.Error("Close did not surface the write error")
	}
}
