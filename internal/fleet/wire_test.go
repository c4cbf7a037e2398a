package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dist"
)

// getStatus fetches one campaign's status over the control surface.
func getStatus(t *testing.T, addr, name string) CampaignStatus {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/campaigns/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	st.UptimeNS = 0
	return st
}

// TestOversizedBody413 pins the body bound: a well-formed request over
// maxBodyBytes — a worker batch or a campaign create — is answered 413
// and leaves campaign state exactly as it was.
func TestOversizedBody413(t *testing.T) {
	s := newTestServer(t, Config{})
	createCampaign(t, s.Addr(), CreateRequest{Name: "c", Spec: mailboxSpec(7)})
	before := getStatus(t, s.Addr(), "c")

	pad := strings.Repeat("w", maxBodyBytes)
	post := func(path string, v any) int {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+s.Addr()+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/batch", dist.BatchRequest{
		Campaign: "c", WorkerID: pad, Rank: 0,
		Publishes: []dist.PublishDelta{{Seq: 1, Vectors: 10}},
	}); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", code)
	}
	// Unknown fields are ignored on decode, so the padded create would
	// admit a valid campaign if the bound did not stop it.
	if code := post("/v1/campaigns", map[string]any{
		"name": "big", "spec": mailboxSpec(7), "pad": pad,
	}); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized create: status %d, want 413", code)
	}

	if after := getStatus(t, s.Addr(), "c"); after != before {
		t.Errorf("413 touched campaign state:\nbefore %+v\nafter  %+v", before, after)
	}
	resp, err := http.Get("http://" + s.Addr() + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list ListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Campaigns) != 1 {
		t.Errorf("oversized create admitted a campaign: %+v", list.Campaigns)
	}
}

// TestChunkedBatchOverQuota429 pins byte-quota accounting by bytes
// read: a chunked upload declares no Content-Length, and must still be
// charged its size against QueueBytes.
func TestChunkedBatchOverQuota429(t *testing.T) {
	s := newTestServer(t, Config{Quota: Quota{QueueBytes: 64}})
	createCampaign(t, s.Addr(), CreateRequest{Name: "c", Spec: mailboxSpec(7)})

	body, err := json.Marshal(dist.BatchRequest{
		Campaign: "c", WorkerID: "chunky", Rank: 0,
		Publishes: []dist.PublishDelta{{Seq: 1, Vectors: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) <= 64 {
		t.Fatalf("batch body is %d bytes; the test needs one over the 64-byte quota", len(body))
	}
	// Hiding the reader's length makes the client send it chunked.
	req, err := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/v1/batch", struct{ io.Reader }{bytes.NewReader(body)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("chunked batch over quota: status %d, want 429", resp.StatusCode)
	}
	if st := getStatus(t, s.Addr(), "c"); st.Rejected429 != 1 || st.Batches != 0 {
		t.Errorf("status after rejection: %d rejected, %d applied; want 1 and 0", st.Rejected429, st.Batches)
	}
}

// TestWireTallyCountsEachRPCOnce pins the per-RPC wire tally: a
// loopback campaign on a one-campaign fleet, driven through a proxy
// that counts what the workers send, charges every RPC exactly once —
// so each entry's calls and request bytes equal the client's.
func TestWireTallyCountsEachRPCOnce(t *testing.T) {
	s := serveCampaign(t, dist.CoordConfig{Spec: mailboxSpec(7)})
	defer s.Shutdown(context.Background())

	target, err := url.Parse("http://" + s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fwd := httputil.NewSingleHostReverseProxy(target)
	var mu sync.Mutex
	sent := map[string]*struct{ calls, bytes int64 }{}
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		rpc := strings.TrimPrefix(r.URL.Path, "/v1/")
		mu.Lock()
		if sent[rpc] == nil {
			sent[rpc] = &struct{ calls, bytes int64 }{}
		}
		sent[rpc].calls++
		sent[rpc].bytes += int64(len(body))
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		fwd.ServeHTTP(w, r)
	}))
	defer proxy.Close()
	addr := strings.TrimPrefix(proxy.URL, "http://")

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dist.RunWorker(context.Background(), dist.WorkerConfig{
				Addr: addr, WorkerID: fmt.Sprintf("tally-%d", i), RankHint: i,
				Client: testClient(addr, int64(i)),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if _, err := s.WaitCampaign(context.Background(), ""); err != nil {
		t.Fatal(err)
	}

	ledger := campaignState(t, s).WireLedger()
	if len(ledger) != len(sent) {
		t.Errorf("wire ledger has %d RPC kinds, the client sent %d: %+v", len(ledger), len(sent), ledger)
	}
	for _, e := range ledger {
		want := sent[e.RPC]
		if want == nil {
			t.Errorf("wire ledger charges %q, which the client never sent", e.RPC)
			continue
		}
		if e.Calls != want.calls || e.BytesIn != want.bytes {
			t.Errorf("%s: ledger %d calls / %d bytes in, client sent %d / %d",
				e.RPC, e.Calls, e.BytesIn, want.calls, want.bytes)
		}
	}
	if sent["batch"] == nil {
		t.Error("the campaign sent no batches; the tally check needs the v4 path")
	}
}

// FuzzWire feeds arbitrary bodies through the server's decode as every
// v4 request type (join, lease, heartbeat, publish, batch, cache,
// report, create). decode must answer an error, never panic, and
// whatever it accepts must survive encode → decode unchanged. The
// seeds are the golden wire fixtures plus a campaign create.
func FuzzWire(f *testing.F) {
	kinds := []string{"join", "lease", "heartbeat", "publish", "batch", "cache", "report", "create"}
	for i, kind := range kinds {
		paths, _ := filepath.Glob(filepath.Join("..", "dist", "testdata", "golden", kind+"_request*.json"))
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), data)
		}
	}
	create, err := json.Marshal(CreateRequest{Name: "nightly", Spec: mailboxSpec(7), StopAtPoints: 40})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(7), create)
	f.Add(uint8(0), []byte(`{"proto":`))
	f.Add(uint8(4), []byte(`{"publishes":[{"seq":1,"coverage":{"nodes":[[0,1]]}}]}`))

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		switch kind % 8 {
		case 0:
			wireRoundTrip[dist.JoinRequest](t, data)
		case 1:
			wireRoundTrip[dist.LeaseRequest](t, data)
		case 2:
			wireRoundTrip[dist.HeartbeatRequest](t, data)
		case 3:
			wireRoundTrip[dist.PublishRequest](t, data)
		case 4:
			wireRoundTrip[dist.BatchRequest](t, data)
		case 5:
			wireRoundTrip[dist.CacheRequest](t, data)
		case 6:
			wireRoundTrip[dist.ReportRequest](t, data)
		case 7:
			wireRoundTrip[CreateRequest](t, data)
		}
	})
}

// wireRoundTrip decodes data as a T through decode and, when accepted,
// checks that its encoding decodes back to the same encoding.
func wireRoundTrip[T any](t *testing.T, data []byte) {
	t.Helper()
	post := func(body []byte) (*httptest.ResponseRecorder, *T, bool) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/rpc", bytes.NewReader(body))
		var v T
		n, ok := decode(rec, req, &v)
		if n != int64(len(body)) && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("decode read %d of %d body bytes", n, len(body))
		}
		return rec, &v, ok
	}
	rec, first, ok := post(data)
	if !ok {
		if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("rejected body answered %d, want 400 or 413", rec.Code)
		}
		return
	}
	enc, err := json.Marshal(first)
	if err != nil {
		t.Fatalf("encode accepted request: %v", err)
	}
	rec, second, ok := post(enc)
	if !ok {
		t.Fatalf("re-encoded request rejected (%d): %s", rec.Code, rec.Body)
	}
	enc2, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("encode → decode → encode is not stable:\n%s\n%s", enc, enc2)
	}
}
