package dist

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestJournalReplayTolerance pins the torn-line contract: a journal
// whose final line was cut mid-write replays cleanly, keeping every
// complete record and dropping the torn one.
func TestJournalReplayTolerance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	jr, err := openJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := CampaignSpec{Bench: "scmi_mailbox", MaxVectors: 3000, Seed: 3, Workers: 2}
	if err := jr.append(journalRecord{Kind: "campaign", CampaignID: "c1", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	rep := &core.Report{Vectors: 100, FinalPoints: 5}
	cw := CovWire{Nodes: [][]int{{0, 1}}, Edges: [][]int{{2}}}
	if err := jr.append(journalRecord{Kind: "report", Rank: 0, Report: rep, Coverage: &cw}); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append half a record.
	f, err := openJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.f.WriteString(`{"kind":"report","rank":1,"repo`); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	st, err := replayJournal(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if st.CampaignID != "c1" || st.Spec == nil {
		t.Fatalf("campaign record lost: %+v", st)
	}
	if len(st.Reports) != 1 || st.Reports[0] == nil {
		t.Fatalf("want exactly the complete rank-0 record, got %+v", st.Reports)
	}
	if st.Reports[0].Report.Vectors != 100 {
		t.Fatalf("rank-0 report corrupted: %+v", st.Reports[0].Report)
	}
	if _, ok := st.Reports[1]; ok {
		t.Fatal("torn rank-1 record must be dropped")
	}
}
