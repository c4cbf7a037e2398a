package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
)

// ---- HTTP plumbing ----

// maxBodyBytes bounds every request body the server decodes: the
// worker RPCs and POST /v1/campaigns. The largest bodies are final
// rank reports, which carry the rank's coverage, trace lane and cost
// ledger. The largest body the test suite, the CI smokes and the
// benchtab records send is 219,848 bytes, so the bound leaves about
// 75x headroom for longer campaigns.
const maxBodyBytes = 16 << 20

// decode reads a bounded POST body into req and returns the bytes
// actually read — what the batch quota and the wire tally charge,
// since a chunked upload declares no Content-Length. An oversized body
// answers 413 and a malformed one 400, both before any campaign state
// is touched.
func decode[T any](w http.ResponseWriter, r *http.Request, req *T) (int64, bool) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return 0, false
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	n := int64(len(data))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", tooBig.Limit))
		return n, false
	case err == nil:
		err = json.Unmarshal(data, req)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "malformed request: "+err.Error())
		return n, false
	}
	return n, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr answers an error; a 429 carries the Retry-After the worker
// client's backoff honors.
func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(dist.ErrorResponse{Error: msg})
}

// countingWriter counts response bytes for the wire tally.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// ---- worker-facing endpoints (campaign-routed) ----

// serveRPC is the one path every worker RPC takes: decode the bounded
// body into req, route it to the campaign *name names (empty: the sole
// hosted campaign), answer with call's result, and charge that
// campaign's wire tally exactly once — request bytes read, response
// bytes written, handler wall time. call receives the request size.
func serveRPC[T any](s *Server, w http.ResponseWriter, r *http.Request, rpc string, req *T, name *string,
	call func(c *campaign, n int64) (any, *dist.HTTPError)) {
	t0 := time.Now()
	n, ok := decode(w, r, req)
	if !ok {
		return
	}
	c, herr := s.lookup(*name)
	if herr != nil {
		writeErr(w, herr.Code, herr.Msg)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	if resp, herr := call(c, n); herr != nil {
		writeErr(cw, herr.Code, herr.Msg)
	} else {
		writeJSON(cw, resp)
	}
	c.cs.AddWire(rpc, n, cw.n, int64(time.Since(t0)))
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req dist.JoinRequest
	serveRPC(s, w, r, "join", &req, &req.Campaign, func(c *campaign, _ int64) (any, *dist.HTTPError) {
		return c.cs.Join(req, true)
	})
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req dist.LeaseRequest
	serveRPC(s, w, r, "lease", &req, &req.Campaign, func(c *campaign, _ int64) (any, *dist.HTTPError) {
		if c.cancelled.Load() {
			return dist.LeaseResponse{Rank: -1, Done: true}, nil
		}
		return c.cs.Lease(req), nil
	})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req dist.HeartbeatRequest
	serveRPC(s, w, r, "heartbeat", &req, &req.Campaign, func(c *campaign, _ int64) (any, *dist.HTTPError) {
		resp := c.cs.Heartbeat(req)
		resp.Stop = resp.Stop || c.cancelled.Load()
		return resp, nil
	})
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	var req dist.PublishRequest
	serveRPC(s, w, r, "publish", &req, &req.Campaign, func(c *campaign, _ int64) (any, *dist.HTTPError) {
		resp := c.cs.Publish(req)
		resp.Stop = resp.Stop || c.cancelled.Load()
		return resp, nil
	})
}

// handleBatch is the admission-controlled ingest path: the request is
// enqueued on its campaign's bounded queue and the handler waits for
// the drainer's response. A full queue (depth or bytes) answers 429 +
// Retry-After without touching campaign state — that rejection is the
// backpressure signal, and the worker's delta survives locally until
// a later flush succeeds.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req dist.BatchRequest
	serveRPC(s, w, r, "batch", &req, &req.Campaign, func(c *campaign, n int64) (any, *dist.HTTPError) {
		if c.queuedBytes.Load()+n > s.quota.QueueBytes {
			return nil, s.reject429(c, n, "campaign ingest queue over byte budget")
		}
		in := ingest{req: req, bytes: n, resp: make(chan dist.BatchResponse, 1)}
		select {
		case c.queue <- in:
		default:
			return nil, s.reject429(c, n, "campaign ingest queue full")
		}
		c.queuedBytes.Add(n)
		c.gDepth.Set(int64(len(c.queue)))
		c.gBytes.Set(c.queuedBytes.Load())
		select {
		case resp := <-in.resp:
			return resp, nil
		case <-r.Context().Done():
			// Client gave up; the drainer will still apply the batch and
			// its buffered response just gets dropped.
			return nil, &dist.HTTPError{Code: http.StatusServiceUnavailable, Msg: "client gone before the batch applied"}
		}
	})
}

// reject429 counts a batch the ingest quota turned away.
func (s *Server) reject429(c *campaign, n int64, msg string) *dist.HTTPError {
	c.c429.Inc()
	s.cRejBatches.Inc()
	s.cRejBytes.Add(n)
	return &dist.HTTPError{Code: http.StatusTooManyRequests, Msg: msg}
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	var req dist.CacheRequest
	serveRPC(s, w, r, "cache", &req, &req.Campaign, func(c *campaign, _ int64) (any, *dist.HTTPError) {
		return c.cs.Cache(req)
	})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	var req dist.ReportRequest
	serveRPC(s, w, r, "report", &req, &req.Campaign, func(c *campaign, _ int64) (any, *dist.HTTPError) {
		return c.cs.Report(req)
	})
}

// ---- control surface ----

// handleCampaigns serves the collection: POST creates, GET lists.
func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req CreateRequest
		if _, ok := decode(w, r, &req); !ok {
			return
		}
		c, herr := s.admit(req, false)
		if herr != nil {
			writeErr(w, herr.Code, herr.Msg)
			return
		}
		w.WriteHeader(http.StatusCreated)
		writeJSON(w, c.status())
	case http.MethodGet:
		resp := ListResponse{Campaigns: []CampaignStatus{}}
		for _, c := range s.campaignsSorted() {
			resp.Campaigns = append(resp.Campaigns, c.status())
		}
		writeJSON(w, resp)
	default:
		writeErr(w, http.StatusMethodNotAllowed, "POST or GET required")
	}
}

// handleCampaign serves one campaign: GET status, GET <name>/report,
// DELETE cancel.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/campaigns/")
	name, sub := rest, ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		name, sub = rest[:i], rest[i+1:]
	}
	c, herr := s.lookup(name)
	if herr != nil {
		writeErr(w, herr.Code, herr.Msg)
		return
	}
	switch {
	case r.Method == http.MethodGet && sub == "":
		writeJSON(w, c.status())
	case r.Method == http.MethodGet && sub == "report":
		rep, err := s.Report(name)
		if err != nil {
			writeErr(w, http.StatusConflict, err.Error())
			return
		}
		writeJSON(w, rep)
	case r.Method == http.MethodDelete && sub == "":
		// Cancel: trip the stop signal and mark the campaign. Workers
		// stop at their next boundary; the journal and final report
		// (marked Interrupted) remain fetchable.
		c.cancelled.Store(true)
		c.cs.ForceStop()
		writeJSON(w, c.status())
	default:
		writeErr(w, http.StatusNotFound, "unknown campaign endpoint")
	}
}

// handleFleet serves the whole-fleet rollup.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	st := FleetStatus{Campaigns: []CampaignStatus{}, UptimeNS: int64(sinceStart(s))}
	for _, c := range s.campaignsSorted() {
		st.Campaigns = append(st.Campaigns, c.status())
	}
	writeJSON(w, st)
}

// handleMetrics exports the fleet-level admission instruments
// (unlabeled) followed by every campaign's registry under a
// campaign="<name>" label on one endpoint.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	_ = obs.WritePrometheusLabeled(w, s.fleetReg, nil)
	for _, c := range s.campaignsSorted() {
		_ = obs.WritePrometheusLabeled(w, c.reg, map[string]string{"campaign": c.name})
	}
}
