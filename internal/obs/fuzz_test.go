package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzTrace feeds arbitrary bytes through the pipeline that tracecheck
// and fuzzreport run: decode, schema check, span check, report, and
// both renderings. A merged trace folds in events that remote workers
// shipped, so every stage must return a result or an error on any
// input, never panic. The seed is a real traced campaign, recorded with
//
//	go run ./cmd/symbfuzz -bench scmi_mailbox -vectors 400 -seed 7 \
//	    -interval 40 -threshold 2 -trace internal/obs/testdata/scmi_mailbox.trace.jsonl
func FuzzTrace(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "scmi_mailbox.trace.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	events, err := ReadEvents(bytes.NewReader(seed))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := BuildCampaignReport(events); err != nil {
		f.Fatalf("seed trace does not reach the renderers: %v", err)
	}
	f.Add(seed)
	f.Add([]byte(`{"type":"campaign_start"}` + "\n" + `{"type":"span","span":"w0","kind":"campaign"}` + "\n" + `{"type":"campaign_end"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		// The span check runs on every decoded input; the report runs
		// it again only behind the schema check.
		ValidateSpans(events)
		r, err := BuildCampaignReport(events)
		if err != nil {
			return
		}
		RenderText(io.Discard, r)
		if err := RenderHTML(io.Discard, r); err != nil {
			t.Fatal(err)
		}
	})
}
