package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/prof"
	"repro/internal/watch"
)

// The tests below host one campaign the way `symbfuzz -serve` does and
// drive it with unnamed workers: the distributed-campaign contracts
// (parity with the in-process run across worker death, coordinator
// kill+resume, journal compaction and the v3/v4 publish paths) hold
// on the one coordinator there is.

// serveOn hosts cc on a one-campaign fleet bound to addr, configured
// like `symbfuzz -serve`.
func serveOn(addr string, cc dist.CoordConfig) (*Server, error) {
	return NewServer(addr, Config{LeaseTTL: cc.LeaseTTL, Quota: Quota{MaxCampaigns: 1}}, cc)
}

func serveCampaign(t *testing.T, cc dist.CoordConfig) *Server {
	t.Helper()
	s, err := serveOn("127.0.0.1:0", cc)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s
}

// campaignState returns the state machine of a one-campaign fleet.
func campaignState(t *testing.T, s *Server) *dist.CampaignState {
	t.Helper()
	cs, err := s.State("")
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// journalView is a campaign journal read back line by line: the last
// campaign spec, the last report record per rank (with its raw line),
// and the alert records in append order. Torn lines are skipped, as
// the coordinator's own replay does.
type journalView struct {
	Spec    *dist.CampaignSpec
	Reports map[int]*journalReport
	Alerts  []watch.Alert
}

type journalReport struct {
	Report *core.Report
	line   []byte
}

func readJournal(t *testing.T, path string) *journalView {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	v := &journalView{Reports: map[int]*journalReport{}}
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		var rec struct {
			Kind   string             `json:"kind"`
			Spec   *dist.CampaignSpec `json:"spec"`
			Rank   int                `json:"rank"`
			Report *core.Report       `json:"report"`
			Alert  *watch.Alert       `json:"alert"`
		}
		if json.Unmarshal(line, &rec) != nil {
			continue
		}
		switch {
		case rec.Kind == "campaign":
			v.Spec = rec.Spec
		case rec.Kind == "report" && rec.Report != nil:
			v.Reports[rec.Rank] = &journalReport{Report: rec.Report, line: line}
		case rec.Kind == "alert" && rec.Alert != nil:
			v.Alerts = append(v.Alerts, *rec.Alert)
		}
	}
	return v
}

// TestLoopbackMatchesPar is the core parity contract: a 2-process
// loopback campaign (coordinator + two concurrent workers over real
// HTTP) produces the same merged report as par.Run with 2 in-process
// workers.
func TestLoopbackMatchesPar(t *testing.T) {
	want := baseline(t, 7)

	co := serveCampaign(t, dist.CoordConfig{Spec: mailboxSpec(7)})
	defer co.Shutdown(context.Background())

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dist.RunWorker(ctx, dist.WorkerConfig{
				Addr:     co.Addr(),
				WorkerID: []string{"wA", "wB"}[i],
				RankHint: i,
				Client:   testClient(co.Addr(), int64(i)),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	got, err := co.WaitCampaign(ctx, "")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	requireParity(t, "loopback", got, want)
}

// TestWorkerDeathReassignment kills a worker mid-shard (after two
// coverage publishes) and lets a replacement drain the campaign. The
// lease expires, the replacement re-derives the same rank seed, and
// the merged report is identical to the fault-free run.
func TestWorkerDeathReassignment(t *testing.T) {
	want := baseline(t, 7)

	co := serveCampaign(t, dist.CoordConfig{Spec: mailboxSpec(7), LeaseTTL: 500 * time.Millisecond})
	defer co.Shutdown(context.Background())
	ctx := context.Background()

	err := dist.RunWorker(ctx, dist.WorkerConfig{
		Addr: co.Addr(), WorkerID: "victim", RankHint: 0,
		DieAfterPublishes: 2,
		Client:            testClient(co.Addr(), 1),
	})
	if err != dist.ErrWorkerDied {
		t.Fatalf("victim: got %v, want induced death", err)
	}

	if err := dist.RunWorker(ctx, dist.WorkerConfig{
		Addr: co.Addr(), WorkerID: "healer", RankHint: -1,
		Client: testClient(co.Addr(), 2),
	}); err != nil {
		t.Fatalf("healer: %v", err)
	}
	got, err := co.WaitCampaign(ctx, "")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	requireParity(t, "worker death", got, want)
}

// TestCoordinatorKillResume kills the coordinator after rank 0's
// report landed in the journal, restarts it with Resume on the same
// journal, and finishes the campaign against the new incarnation. The
// merged report equals the fault-free run and rank 0 is not re-run.
func TestCoordinatorKillResume(t *testing.T) {
	want := baseline(t, 7)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx := context.Background()

	co1 := serveCampaign(t, dist.CoordConfig{Spec: mailboxSpec(7), JournalPath: journal})
	if err := dist.RunWorker(ctx, dist.WorkerConfig{
		Addr: co1.Addr(), WorkerID: "early", RankHint: 0, MaxRanks: 1,
		Client: testClient(co1.Addr(), 1),
	}); err != nil {
		t.Fatalf("early worker: %v", err)
	}
	// Kill the first coordinator. Its in-memory leases and frontier
	// die with it; only the journal survives.
	if err := co1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	co2 := serveCampaign(t, dist.CoordConfig{Spec: mailboxSpec(7), JournalPath: journal, Resume: true})
	defer co2.Shutdown(context.Background())
	if err := dist.RunWorker(ctx, dist.WorkerConfig{
		Addr: co2.Addr(), WorkerID: "late", RankHint: -1,
		Client: testClient(co2.Addr(), 2),
	}); err != nil {
		t.Fatalf("late worker: %v", err)
	}
	got, err := co2.WaitCampaign(ctx, "")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	requireParity(t, "kill+resume", got, want)
}

// runDistTraced runs a full 2-worker loopback campaign with a JSONL
// tracer on the coordinator and returns the report plus trace lines.
func runDistTraced(t *testing.T, seed int64) (*par.Report, []string) {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	o := obs.New(obs.Options{Tracer: tr})

	co := serveCampaign(t, dist.CoordConfig{Spec: mailboxSpec(seed), Obs: o})
	defer co.Shutdown(context.Background())
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dist.RunWorker(ctx, dist.WorkerConfig{
				Addr: co.Addr(), WorkerID: []string{"wA", "wB"}[i], RankHint: i,
				Client: testClient(co.Addr(), int64(i)),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	rep, err := co.WaitCampaign(ctx, "")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("tracer close: %v", err)
	}
	return rep, strings.Split(strings.TrimSpace(buf.String()), "\n")
}

// normalizeTrace zeroes wall-clock fields and sorts, turning the
// stream into a comparable event multiset (par test idiom).
func normalizeTrace(t *testing.T, lines []string) []string {
	t.Helper()
	out := make([]string, 0, len(lines))
	for i, ln := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line %d: %v", i+1, err)
		}
		ev.TNS, ev.DurNS, ev.BlastNS, ev.SolveNS = 0, 0, 0, 0
		ev.Cache, ev.OriginWorker, ev.OriginSpan = "", 0, ""
		b, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	sort.Strings(out)
	return out
}

// TestDistDeterminism runs the same-seed loopback campaign twice:
// merged reports and trace-event multisets must agree, and both
// traces must validate with two worker lanes. CI runs this under
// -race.
func TestDistDeterminism(t *testing.T) {
	repA, traceA := runDistTraced(t, 7)
	repB, traceB := runDistTraced(t, 7)

	ma, mb := normalizeReport(repA.Merged), normalizeReport(repB.Merged)
	if !reflect.DeepEqual(ma, mb) {
		t.Errorf("merged reports differ across identical campaigns:\n%+v\n%+v", ma, mb)
	}
	for r := range repA.PerWorker {
		wa, wb := normalizeReport(repA.PerWorker[r]), normalizeReport(repB.PerWorker[r])
		if !reflect.DeepEqual(wa, wb) {
			t.Errorf("rank %d reports differ:\n%+v\n%+v", r, wa, wb)
		}
	}

	na, nb := normalizeTrace(t, traceA), normalizeTrace(t, traceB)
	if len(na) != len(nb) {
		t.Fatalf("trace lengths differ: %d vs %d events", len(na), len(nb))
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Fatalf("trace multisets diverge at sorted index %d:\n%s\n%s", i, na[i], nb[i])
		}
	}
	for i, lines := range [][]string{traceA, traceB} {
		sum, err := obs.ValidateTrace(strings.NewReader(strings.Join(lines, "\n")))
		if err != nil {
			t.Fatalf("campaign %d: trace invalid: %v", i, err)
		}
		if sum.Workers != 2 {
			t.Errorf("campaign %d: trace shows %d worker lanes, want 2", i, sum.Workers)
		}
	}
}

// TestCrossProcessCausalChain is the flight-recorder acceptance test:
// two ranks run in strict sequence as separate worker processes (fresh
// L1 plan caches), so every plan rank 1 reuses from rank 0 must round
// trip through the coordinator's shared cache over HTTP. The merged
// trace must reconstruct at least one complete causal chain
//
//	stagnation -> solve (rank A, miss) -> remote cache store ->
//	cache hit (rank B) -> plan_apply -> coverage_delta
//
// across the process boundary, and the campaign report rendered from
// that trace must be byte-identical across renders.
func TestCrossProcessCausalChain(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	o := obs.New(obs.Options{Tracer: tr})

	// Seed 5 is a campaign where the two ranks provably stagnate at a
	// shared register state, so rank 1 reuses a plan rank 0 solved.
	// Campaigns are deterministic per seed, so the collision is stable.
	co := serveCampaign(t, dist.CoordConfig{Spec: mailboxSpec(5), Obs: o})
	defer co.Shutdown(context.Background())
	ctx := context.Background()

	// Sequential ranks: worker "first" drains rank 0 and exits before
	// worker "second" leases rank 1. Separate dist.RunWorker calls mean
	// separate worker structs and separate L1 caches — any hit on
	// rank 0's solves is a genuine wire fetch.
	for i, id := range []string{"first", "second"} {
		if err := dist.RunWorker(ctx, dist.WorkerConfig{
			Addr: co.Addr(), WorkerID: id, RankHint: i, MaxRanks: 1,
			Client: testClient(co.Addr(), int64(i)),
		}); err != nil {
			t.Fatalf("worker %s: %v", id, err)
		}
	}
	if _, err := co.WaitCampaign(ctx, ""); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateSpans(events)
	if err != nil {
		t.Fatalf("merged trace spans invalid: %v", err)
	}
	if sum.Roots != 3 { // coordinator lane + 2 worker lanes
		t.Errorf("campaign roots = %d, want 3", sum.Roots)
	}
	if sum.CrossRankLinks == 0 {
		t.Fatal("no cross-rank cache links in a sequential 2-rank campaign")
	}
	if sum.DanglingOrigins != 0 {
		t.Errorf("%d cache hits reference origin spans missing from the merged trace", sum.DanglingOrigins)
	}

	chain, ok := obs.FindCrossRankChain(events)
	if !ok {
		t.Fatal("merged trace reconstructs no complete cross-process causal chain")
	}
	if chain.OriginRank == chain.HitRank {
		t.Fatalf("chain stayed on one rank: %+v", chain)
	}
	for name, span := range map[string]string{
		"stagnation": chain.Stagnation, "solve": chain.Solve, "hit solve": chain.HitSolve,
		"plan_apply": chain.PlanApply, "coverage_delta": chain.CovDelta,
	} {
		if span == "" {
			t.Errorf("chain is missing its %s span: %+v", name, chain)
		}
	}

	// The report generator renders this trace deterministically.
	rep1, err := obs.BuildCampaignReport(events)
	if err != nil {
		t.Fatalf("report over dist trace: %v", err)
	}
	if rep1.Chain == nil {
		t.Error("campaign report lost the cross-rank chain")
	}
	var h1, h2 bytes.Buffer
	if err := obs.RenderHTML(&h1, rep1); err != nil {
		t.Fatal(err)
	}
	rep2, err := obs.BuildCampaignReport(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.RenderHTML(&h2, rep2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h1.Bytes(), h2.Bytes()) {
		t.Error("HTML report is not byte-identical across renders of the dist trace")
	}
}

// TestProfiledLedgerMatchesPar is the cost-profiler parity contract:
// a profiled 2-process loopback campaign ships per-rank cost ledgers
// on the report wire, and the coordinator's rank-ordered merge is
// byte-identical (canonically) to the in-process par orchestrator's —
// and to a second distributed run of the same seed.
func TestProfiledLedgerMatchesPar(t *testing.T) {
	b := designs.IPBenchmark(designs.Mailbox(), true)
	s := mailboxSpec(7)

	// In-process reference dump.
	cc := core.Config{
		Interval: s.Interval, Threshold: s.Threshold, MaxVectors: s.MaxVectors,
		Seed: s.Seed, UseSnapshots: s.UseSnapshots, ContinueAfterCoverage: s.ContinueAfterCoverage,
	}
	base := prof.New(prof.Options{})
	cc.Prof = base
	if _, err := par.Run(b.Elaborate, b.Properties, par.Config{Config: cc, Workers: s.Workers}); err != nil {
		t.Fatalf("par: %v", err)
	}
	want := prof.NewDump(b.Name, s.Seed, base.Ledgers())

	runDist := func() *prof.Dump {
		spec := s
		spec.Profile = true
		co := serveCampaign(t, dist.CoordConfig{Spec: spec})
		defer co.Shutdown(context.Background())
		ctx := context.Background()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = dist.RunWorker(ctx, dist.WorkerConfig{
					Addr: co.Addr(), WorkerID: []string{"pA", "pB"}[i], RankHint: i,
					Client: testClient(co.Addr(), int64(i)),
				})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		}
		if _, err := co.WaitCampaign(ctx, ""); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		d := prof.NewDump(b.Name, spec.Seed, campaignState(t, co).Ledgers())
		d.Wire = campaignState(t, co).WireLedger()
		return d
	}
	got1, got2 := runDist(), runDist()

	canon := func(d *prof.Dump) []byte {
		out, err := d.Canonical().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cw, c1, c2 := canon(want), canon(got1), canon(got2)
	if !bytes.Equal(c1, cw) {
		t.Errorf("distributed canonical ledger diverged from in-process run:\ndist: %s\npar:  %s", c1, cw)
	}
	if !bytes.Equal(c1, c2) {
		t.Errorf("distributed canonical ledger not deterministic across runs:\n%s\nvs\n%s", c1, c2)
	}

	// The wire ledger (annotation) saw every RPC kind a full campaign
	// exercises — under v4 the interval publishes ride /v1/batch.
	seen := map[string]bool{}
	for _, e := range got1.Wire {
		seen[e.RPC] = true
		if e.Calls <= 0 {
			t.Errorf("wire entry %q with nonpositive calls: %+v", e.RPC, e)
		}
	}
	for _, rpc := range []string{"join", "lease", "batch", "report"} {
		if !seen[rpc] {
			t.Errorf("wire ledger missing %q: %+v", rpc, got1.Wire)
		}
	}
}

// TestVersionSkew pins the join-time version gate: a worker speaking
// a different protocol revision is rejected with a clear error, not
// silently admitted.
func TestVersionSkew(t *testing.T) {
	co := serveCampaign(t, dist.CoordConfig{Spec: mailboxSpec(7)})
	defer co.Shutdown(context.Background())

	cl := testClient(co.Addr(), 0)
	_, err := cl.Join(context.Background(), dist.JoinRequest{Proto: dist.ProtoVersion + 1, WorkerID: "skewed"})
	if err == nil {
		t.Fatal("version-skewed join was accepted")
	}
	pe, ok := err.(*dist.ProtoError)
	if !ok {
		t.Fatalf("got %T (%v), want *dist.ProtoError", err, err)
	}
	if pe.Status != 400 || !strings.Contains(pe.Msg, "protocol version mismatch") {
		t.Fatalf("rejection not explanatory: %v", pe)
	}
}

// TestSyncPublishParity pins the v3 synchronous-publish ablation: a
// worker forced onto the full-snapshot path produces the same merged
// report as the batched default and the in-process baseline. This is
// the arm the wire-overhead benchmark compares against.
func TestSyncPublishParity(t *testing.T) {
	want := baseline(t, 7)

	co := serveCampaign(t, dist.CoordConfig{Spec: mailboxSpec(7)})
	defer co.Shutdown(context.Background())
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dist.RunWorker(ctx, dist.WorkerConfig{
				Addr: co.Addr(), WorkerID: []string{"sA", "sB"}[i], RankHint: i,
				SyncPublish: true,
				Client:      testClient(co.Addr(), int64(i)),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	got, err := co.WaitCampaign(ctx, "")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	requireParity(t, "sync publish", got, want)

	// The ablation really did use the synchronous endpoint.
	for _, e := range campaignState(t, co).WireLedger() {
		if e.RPC == "batch" {
			t.Errorf("sync-publish run sent batches: %+v", e)
		}
	}
}

// TestBatchResyncAfterCoordinatorRestart exercises the v4 resync
// path: a batching worker survives a coordinator restart mid-rank
// (its client retries ride out the gap), the new incarnation answers
// its next delta with Resync, the worker folds its full coverage back
// in, and the campaign still ends byte-identical to the in-process
// baseline.
func TestBatchResyncAfterCoordinatorRestart(t *testing.T) {
	want := baseline(t, 7)
	journal := filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx := context.Background()

	co1 := serveCampaign(t, dist.CoordConfig{Spec: mailboxSpec(7), JournalPath: journal})
	addr := co1.Addr()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[0] = dist.RunWorker(ctx, dist.WorkerConfig{
			Addr: addr, WorkerID: "survivor", RankHint: 0, MaxRanks: 1,
			Client: testClient(addr, 1),
		})
	}()

	// Restart the coordinator on the same address while the worker is
	// mid-rank. Its in-memory delta baseline dies with it.
	time.Sleep(300 * time.Millisecond)
	if err := co1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	co2, err := serveOn(addr, dist.CoordConfig{Spec: mailboxSpec(7), JournalPath: journal, Resume: true})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer co2.Shutdown(context.Background())

	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[1] = dist.RunWorker(ctx, dist.WorkerConfig{
			Addr: addr, WorkerID: "late", RankHint: 1,
			Client: testClient(addr, 2),
		})
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	got, err := co2.WaitCampaign(ctx, "")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	requireParity(t, "batch resync", got, want)
}

// TestJournalCompactionKillResume pins the compaction contract: a
// journal bloated far past its live state compacts down to the
// campaign record plus the last report per rank, and a coordinator
// resumed from the compacted file finishes the campaign with full
// parity — resume cost is O(live state), not O(append history).
func TestJournalCompactionKillResume(t *testing.T) {
	want := baseline(t, 7)
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx := context.Background()

	co1 := serveCampaign(t, dist.CoordConfig{Spec: mailboxSpec(7), JournalPath: path, CompactBytes: 64})
	if err := dist.RunWorker(ctx, dist.WorkerConfig{
		Addr: co1.Addr(), WorkerID: "early", RankHint: 0, MaxRanks: 1,
		Client: testClient(co1.Addr(), 1),
	}); err != nil {
		t.Fatalf("early worker: %v", err)
	}
	if err := co1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Bloat the journal with duplicate appends of the rank-0 record —
	// the append-history growth compaction must bound — then reopen it
	// with a 64-byte threshold: the campaign record the reopened state
	// appends triggers the compaction.
	st := readJournal(t, path)
	if st.Reports[0] == nil {
		t.Fatal("rank 0 record missing before bloat")
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := f.Write(st.Reports[0].line); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cs, err := dist.NewCampaignState(dist.CoordConfig{Spec: mailboxSpec(7), JournalPath: path, Resume: true, CompactBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// Size bound: the file holds at most a handful of records, not 40+.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1
	if lines > 8 {
		t.Fatalf("compaction left %d journal lines; want O(live state)", lines)
	}

	// The compacted journal replays to exactly the live state...
	st2 := readJournal(t, path)
	if st2.Spec == nil || len(st2.Reports) != 1 || st2.Reports[0] == nil {
		t.Fatalf("compacted journal lost live state: %+v", st2)
	}
	if st2.Reports[0].Report.Vectors != st.Reports[0].Report.Vectors {
		t.Fatalf("rank 0 record corrupted by compaction")
	}

	// ...and a resumed coordinator finishes the campaign with parity.
	co2 := serveCampaign(t, dist.CoordConfig{Spec: mailboxSpec(7), JournalPath: path, Resume: true, CompactBytes: 64})
	defer co2.Shutdown(context.Background())
	if err := dist.RunWorker(ctx, dist.WorkerConfig{
		Addr: co2.Addr(), WorkerID: "late", RankHint: -1,
		Client: testClient(co2.Addr(), 2),
	}); err != nil {
		t.Fatalf("late worker: %v", err)
	}
	got, err := co2.WaitCampaign(ctx, "")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	requireParity(t, "compaction", got, want)
}
