package dist

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/watch"
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

// fuzzJournalPrefix is a well-formed journal: a campaign record, two
// reports (rank 0 twice, so the later one must win) and an alert.
func fuzzJournalPrefix(t testing.TB) []byte {
	spec := CampaignSpec{Bench: "scmi_mailbox", MaxVectors: 3000, Seed: 3, Workers: 2}
	cw := CovWire{Nodes: [][]int{{0, 1}}, Edges: [][]int{{2}}}
	var out []byte
	for _, rec := range []journalRecord{
		{Kind: "campaign", CampaignID: "c1", Name: "n", Spec: &spec},
		{Kind: "report", Rank: 0, Report: &core.Report{Vectors: 10}, Coverage: &cw},
		{Kind: "report", Rank: 0, Report: &core.Report{Vectors: 100, FinalPoints: 5}, Coverage: &cw},
		{Kind: "alert", Alert: &watch.Alert{ID: "c1/coverage_stall/r0/i9"}},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// replayBytes writes data as a journal file and replays it.
func replayBytes(t *testing.T, data []byte) (*journalState, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return replayJournal(path)
}

// FuzzJournal holds replayJournal to its contract on arbitrary input:
// any file replays to a state or an error, never a panic; and a
// well-formed prefix followed by a torn tail — any strict prefix of one
// more record line, the write a crash interrupted — replays to exactly
// the prefix's state.
func FuzzJournal(f *testing.F) {
	prefix := fuzzJournalPrefix(f)
	f.Add(prefix, "rank 1 payload", uint16(17))
	f.Add([]byte(`{"kind":"report","rank":-3,"report":{},"coverage":{}}`+"\n{"), "", uint16(0))
	f.Add([]byte("\n\n{\"kind\":\"alert\",\"alert\":{}}\nnot json\n"), "x", uint16(400))
	f.Fuzz(func(t *testing.T, data []byte, name string, cut uint16) {
		st, err := replayBytes(t, data)
		if err == nil && st == nil {
			t.Fatal("replay returned neither a state nor an error")
		}

		want, err := replayBytes(t, prefix)
		if err != nil {
			t.Fatal(err)
		}
		spec := CampaignSpec{Bench: name, Workers: 1}
		line, err := json.Marshal(journalRecord{
			Kind: "report", Rank: 1, Name: name, Spec: &spec,
			Report: &core.Report{Vectors: uint64(cut)}, Coverage: &CovWire{},
		})
		if err != nil {
			t.Fatal(err)
		}
		torn := line[:int(cut)%len(line)]
		got, err := replayBytes(t, append(append([]byte{}, prefix...), torn...))
		if err != nil {
			t.Fatalf("torn tail %q: %v", torn, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("torn tail %q changed the replayed state:\n got %+v\nwant %+v", torn, got, want)
		}
	})
}
