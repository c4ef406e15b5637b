// HTTP/JSON wire surface of the analysis service (docs/service.md): the
// job API handlers mounted by Server.Handler, the wire types they speak,
// and a small client used by cmd/difftest, the experiments harness and
// the tests. Every error response is a typed JSON envelope — the
// service never answers a bare 500: handler-level panics are recovered
// into job errors carrying a fault record (docs/robustness.md).
package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/ledger"
)

// JobSpec is the submit-request body. Image is the RIMG program image
// (prog.Marshal bytes; JSON encodes []byte as base64). Budgets left
// zero fall back to the server's defaults; budgets above the server's
// caps are clamped, never rejected (the scheduler owns the resource
// governor, docs/robustness.md).
type JobSpec struct {
	Image []byte `json:"image"`
	Arch  string `json:"arch,omitempty"` // must match the image header when set

	// Mode selects the analysis: "explore" (default) runs full symbolic
	// exploration; "concolic" runs generational concolic testing from
	// Seed with at most MaxRuns concrete executions.
	Mode    string `json:"mode,omitempty"`
	Seed    []byte `json:"seed,omitempty"`
	MaxRuns int    `json:"max_runs,omitempty"`

	Inputs   int    `json:"inputs,omitempty"`    // symbolic input bytes
	MaxSteps int64  `json:"max_steps,omitempty"` // per-path instruction budget
	MaxPaths int    `json:"max_paths,omitempty"` // completed-path budget
	Workers  int    `json:"workers,omitempty"`   // exploration workers
	Strategy string `json:"strategy,omitempty"`  // dfs|bfs|random|coverage
}

// JobError is the typed error envelope: Code is machine-matchable,
// Fault is present when the failure traces back to a recovered panic or
// an injected fault (chaos testing relies on this being populated —
// "never a 500 without a fault record").
type JobError struct {
	Code  string       `json:"code"`
	Msg   string       `json:"msg"`
	Fault *FaultRecord `json:"fault,omitempty"`
}

// Error codes.
const (
	CodeBadRequest = "bad_request" // malformed JSON, bad image, unknown arch
	CodeQueueFull  = "queue_full"  // admission rejected: backpressure (HTTP 429)
	CodeDraining   = "draining"    // server is shutting down (HTTP 503)
	CodeNotFound   = "not_found"   // no such job
	CodeCanceled   = "canceled"    // job canceled before or during the run
	CodePanic      = "panic"       // recovered handler-level panic
	CodeDecode     = "decode"      // program image failed to decode
	CodeEngine     = "engine"      // engine returned a run-level error
	CodeStalled    = "stalled"     // watchdog killed a run making no progress
)

func (e *JobError) Error() string {
	if e.Fault != nil {
		return fmt.Sprintf("%s: %s (fault at %s)", e.Code, e.Msg, e.Fault.Site)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Msg)
}

// FaultRecord attributes a failure to a fault site/layer, mirroring
// core.PathFault and the faultinject site names.
type FaultRecord struct {
	Site     string `json:"site,omitempty"`  // faultinject site (injected faults)
	Layer    string `json:"layer,omitempty"` // engine fault layer (path faults)
	PC       uint64 `json:"pc,omitempty"`
	Msg      string `json:"msg,omitempty"`
	Injected bool   `json:"injected,omitempty"`
}

// JobStats summarizes a completed run for the status endpoint.
type JobStats struct {
	Paths        int   `json:"paths"`
	Bugs         int   `json:"bugs"`
	Instructions int64 `json:"instructions"`
	Forks        int64 `json:"forks"`
	SolverQs     int64 `json:"solver_queries"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	PathFaults   int64 `json:"path_faults"`
	Degraded     int64 `json:"degraded"`
	Coverage     int   `json:"coverage"`
	WallMS       int64 `json:"wall_ms"`
}

// JobStatus is the poll-endpoint view of a job. Attempts counts
// transient-failure retries; Recovered marks a job rebuilt from the
// durable journal after a restart, and Resumed additionally means its
// exploration continued from a checkpoint instead of the entry point.
type JobStatus struct {
	ID        string    `json:"id"`
	Arch      string    `json:"arch,omitempty"`
	Mode      string    `json:"mode,omitempty"`
	Status    string    `json:"status"` // queued|running|done|failed|canceled
	Error     *JobError `json:"error,omitempty"`
	Stats     *JobStats `json:"stats,omitempty"`
	Attempts  int       `json:"attempts,omitempty"`
	Recovered bool      `json:"recovered,omitempty"`
	Resumed   bool      `json:"resumed,omitempty"`
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Event is one JSONL line of the results stream. Exactly one of the
// payload pointers matches Type.
type Event struct {
	Type string `json:"type"` // path|bug|fault|coverage|done

	Path     *PathEvent     `json:"path,omitempty"`
	Bug      *BugEvent      `json:"bug,omitempty"`
	Fault    *FaultRecord   `json:"fault,omitempty"`
	Coverage *CoverageEvent `json:"coverage,omitempty"`
	Done     *JobStats      `json:"done,omitempty"`
}

// PathEvent is one completed path (exploration) or one concrete run
// (concolic; Input is set, EndPC/Depth are not).
type PathEvent struct {
	ID     int    `json:"id"`
	Status string `json:"status"`
	EndPC  uint64 `json:"end_pc,omitempty"`
	Steps  int64  `json:"steps"`
	Depth  int    `json:"depth,omitempty"`
	Input  []byte `json:"input,omitempty"`
}

// BugEvent is one checker finding.
type BugEvent struct {
	Check string `json:"check"`
	PC    uint64 `json:"pc"`
	Insn  string `json:"insn,omitempty"`
	Msg   string `json:"msg,omitempty"`
	Input []byte `json:"input,omitempty"`
}

// CoverageEvent reports the distinct instruction addresses executed.
type CoverageEvent struct {
	Covered int `json:"covered"`
}

// ---- handlers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, e *JobError) {
	writeJSON(w, status, struct {
		Error *JobError `json:"error"`
	}{e})
}

// httpStatusOf maps typed error codes onto HTTP statuses. Backpressure
// is 429, draining 503 — the two load-shedding answers a well-behaved
// client retries with backoff.
func httpStatusOf(code string) int {
	switch code {
	case CodeQueueFull:
		return http.StatusTooManyRequests
	case CodeDraining:
		return http.StatusServiceUnavailable
	case CodeNotFound:
		return http.StatusNotFound
	case CodeBadRequest:
		return http.StatusBadRequest
	}
	return http.StatusBadRequest
}

// Handler returns the service mux: the /v1 job API plus the full obs
// introspection surface (/metrics, /coverage, expvar, pprof) of
// docs/observability.md. Scrapes of /metrics refresh the service-level
// gauges first, so queue depth and persistence counters are current.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/jobs/{id}/profile", s.handleProfile)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/runs", s.handleRuns)
	mux.HandleFunc("GET /v1/runs/{digest}", s.handleTrend)

	obsH := s.obsHandler
	mux.Handle("GET /metrics", obsH)
	mux.Handle("GET /coverage", obsH)
	mux.Handle("GET /debug/", obsH)
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "symexd analysis service\n\n"+
			"  POST   /v1/jobs              submit a job (JSON JobSpec)\n"+
			"  GET    /v1/jobs              list jobs\n"+
			"  GET    /v1/jobs/{id}         poll job status\n"+
			"  GET    /v1/jobs/{id}/results stream results as JSONL (?wait=1 streams live)\n"+
			"  GET    /v1/jobs/{id}/profile exploration profile: pprof pb.gz (?format=text|json)\n"+
			"  GET    /v1/jobs/{id}/events  live job progress as SSE snapshots\n"+
			"  DELETE /v1/jobs/{id}         cancel a job\n"+
			"  GET    /v1/runs              run-ledger history (?digest= filters)\n"+
			"  GET    /v1/runs/{digest}     per-digest trend with regression verdict\n"+
			"  GET    /metrics              Prometheus metrics (service_* + engine)\n"+
			"  GET    /coverage             semantic-coverage matrix\n"+
			"  GET    /debug/profile        aggregate exploration profile (all jobs)\n"+
			"  GET    /debug/pprof/         pprof\n")
	})
	return s.logRequests(mux)
}

// logRequests wraps the service mux with structured request logging:
// one line per request with method, path, remote address, status and
// latency. Job-API requests log at Info; the high-frequency scrape and
// debug surfaces (/metrics, /coverage, /debug/...) log at Debug so a
// Prometheus poller does not flood the job log.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		level := slog.LevelDebug
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			level = slog.LevelInfo
		}
		s.log.Log(r.Context(), level, "http request",
			"method", r.Method, "path", r.URL.Path, "remote", r.RemoteAddr,
			"status", rec.status, "dur_ms", time.Since(t0).Milliseconds())
	})
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush passes through to the wrapped writer so the streaming handlers
// (JSONL results, SSE progress) can push records incrementally through
// the logging wrapper instead of buffering until the job ends.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handleProfile serves a job's exploration profile: the gzipped pprof
// protobuf by default (feed it straight to `go tool pprof`), or the
// hotspot report with ?format=text|json. The profile of a running job
// is a live partial snapshot — worker shards fold in at merge points,
// so recent activity may not be visible yet.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok || j.prof == nil {
		writeError(w, http.StatusNotFound, &JobError{Code: CodeNotFound, Msg: "no such job"})
		return
	}
	switch r.URL.Query().Get("format") {
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		j.prof.WriteText(w)
	case "json":
		data, err := j.prof.JSON()
		if err != nil {
			writeError(w, http.StatusInternalServerError, &JobError{Code: CodePanic, Msg: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf(`attachment; filename="%s.pb.gz"`, j.id))
		if err := j.prof.WritePprof(w); err != nil {
			writeError(w, http.StatusInternalServerError, &JobError{Code: CodePanic, Msg: err.Error()})
		}
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, &JobError{Code: CodeBadRequest, Msg: err.Error()})
		return
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		writeError(w, http.StatusBadRequest, &JobError{Code: CodeBadRequest, Msg: "bad JSON: " + err.Error()})
		return
	}
	st, jerr := s.Submit(spec)
	if jerr != nil {
		writeError(w, httpStatusOf(jerr.Code), jerr)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, &JobError{Code: CodeNotFound, Msg: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, &JobError{Code: CodeNotFound, Msg: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleResults streams the job's events as JSONL. With ?wait=1 the
// response stays open until the job reaches a terminal state (or the
// client goes away), with every event flushed as it is emitted — a
// waiting client sees results live, not buffered at job end. Without
// wait, whatever has been emitted so far is returned and the request
// completes.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, &JobError{Code: CodeNotFound, Msg: "no such job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	if r.URL.Query().Get("wait") == "" {
		for _, ev := range j.eventsSnapshot() {
			enc.Encode(ev)
		}
		return
	}
	n := 0
	for {
		evs, terminal, wakeup := j.eventsSince(n)
		for _, ev := range evs {
			enc.Encode(ev)
		}
		n += len(evs)
		if len(evs) > 0 && fl != nil {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-wakeup:
		case <-r.Context().Done():
			return
		}
	}
}

// ProgressEvent is one SSE snapshot of a running job's live counters
// (GET /v1/jobs/{id}/events): the core.Progress block plus the
// scheduler's queue depth and the job's lifecycle state. Seq increments
// per snapshot; the stream ends with an `event: done` carrying the
// final snapshot.
type ProgressEvent struct {
	Seq           int    `json:"seq"`
	State         string `json:"state"` // queued|running|done|failed|canceled
	ElapsedMS     int64  `json:"elapsed_ms"`
	Paths         int64  `json:"paths"`
	Frontier      int64  `json:"frontier"`
	QueueDepth    int    `json:"queue_depth"` // scheduler queue, not the frontier
	Instructions  int64  `json:"instructions"`
	Forks         int64  `json:"forks"`
	Covered       int64  `json:"covered"` // distinct instruction addresses
	Degraded      int64  `json:"degraded"`
	SolverMS      int64  `json:"solver_ms"`
	SolverQueries int64  `json:"solver_queries"`
	CacheHits     int64  `json:"cache_hits"`
}

// progressEvent samples the job's live counters into one wire snapshot.
func (s *Server) progressEvent(j *Job, seq int) ProgressEvent {
	p := j.progress.Snapshot()
	return ProgressEvent{
		Seq:           seq,
		State:         j.statusString(),
		ElapsedMS:     j.elapsed().Milliseconds(),
		Paths:         p.Paths,
		Frontier:      p.Frontier,
		QueueDepth:    len(s.queue),
		Instructions:  p.Instructions,
		Forks:         p.Forks,
		Covered:       p.Covered,
		Degraded:      p.Degraded,
		SolverMS:      p.SolverNS / 1e6,
		SolverQueries: p.SolverQueries,
		CacheHits:     p.CacheHits,
	}
}

// handleEvents streams a job's live progress as Server-Sent Events: an
// immediate first snapshot, one per SnapshotInterval while the job
// runs (each snapshot doubles as the heartbeat), and a final `done`
// event when the job is terminal. Terminal jobs get the final snapshot
// and `done` straight away — the endpoint never 404s a finished job
// that is still retained.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, &JobError{Code: CodeNotFound, Msg: "no such job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError,
			&JobError{Code: CodePanic, Msg: "response writer does not support streaming"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	writeEvent := func(name string, ev ProgressEvent) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	seq := 0
	if !writeEvent("snapshot", s.progressEvent(j, seq)) {
		return
	}
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-j.doneCh:
			seq++
			writeEvent("done", s.progressEvent(j, seq))
			return
		case <-t.C:
			seq++
			if !writeEvent("snapshot", s.progressEvent(j, seq)) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// RunsResponse is the GET /v1/runs body.
type RunsResponse struct {
	Total   int             `json:"total"`
	Digests []string        `json:"digests,omitempty"`
	Runs    []ledger.Record `json:"runs"`
}

// TrendResponse is the GET /v1/runs/{digest} body: the series' rolling
// medians and latest-run gate verdict plus the records themselves.
type TrendResponse struct {
	Trend ledger.Trend    `json:"trend"`
	Runs  []ledger.Record `json:"runs"`
}

// handleRuns serves the run-ledger history, optionally filtered by
// ?digest=.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if s.ledger == nil {
		writeError(w, http.StatusNotFound, &JobError{Code: CodeNotFound, Msg: "run ledger is not enabled (start with -ledger)"})
		return
	}
	recs := s.ledger.Records()
	if d := r.URL.Query().Get("digest"); d != "" {
		filtered := recs[:0:0]
		for _, rec := range recs {
			if rec.Digest == d {
				filtered = append(filtered, rec)
			}
		}
		recs = filtered
	}
	if recs == nil {
		recs = []ledger.Record{}
	}
	writeJSON(w, http.StatusOK, RunsResponse{Total: len(recs), Digests: s.ledger.Digests(), Runs: recs})
}

// handleTrend serves one digest's series with its rolling medians and
// the latest run's regression verdict.
func (s *Server) handleTrend(w http.ResponseWriter, r *http.Request) {
	if s.ledger == nil {
		writeError(w, http.StatusNotFound, &JobError{Code: CodeNotFound, Msg: "run ledger is not enabled (start with -ledger)"})
		return
	}
	d := r.PathValue("digest")
	recs := s.ledger.ByDigest(d)
	if len(recs) == 0 {
		writeError(w, http.StatusNotFound, &JobError{Code: CodeNotFound, Msg: "no runs recorded for digest " + d})
		return
	}
	writeJSON(w, http.StatusOK, TrendResponse{
		Trend: ledger.TrendOf(d, recs, ledger.GateOptions{}),
		Runs:  recs,
	})
}

// ---- client ----

// Client is a minimal API client for one symexd base URL ("host:port"
// or "http://host:port").
type Client struct {
	Base string
	HTTP *http.Client
}

// NewClient returns a client for the service at addr.
func NewClient(addr string) *Client {
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		addr = "http://" + addr
	}
	return &Client{Base: strings.TrimRight(addr, "/"), HTTP: &http.Client{}}
}

func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = strings.NewReader(string(b))
	}
	req, err := http.NewRequest(method, c.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var env struct {
			Error *JobError `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error != nil {
			return env.Error
		}
		return fmt.Errorf("service: HTTP %d on %s %s", resp.StatusCode, method, path)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// Submit posts a job and returns its initial status.
func (c *Client) Submit(spec JobSpec) (*JobStatus, error) {
	var st JobStatus
	if err := c.do("POST", "/v1/jobs", spec, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Status polls a job.
func (c *Client) Status(id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do("GET", "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel requests cancellation and returns the resulting status.
func (c *Client) Cancel(id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do("DELETE", "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls until the job reaches a terminal state or the timeout
// expires.
func (c *Client) Wait(id string, timeout time.Duration) (*JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.Status(id)
		if err != nil {
			return nil, err
		}
		switch st.Status {
		case StateDone, StateFailed, StateCanceled:
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("service: job %s still %s after %v", id, st.Status, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Results fetches the JSONL event stream. With wait it blocks server-
// side until the job is terminal, so the returned slice is complete.
func (c *Client) Results(id string, wait bool) ([]Event, error) {
	path := "/v1/jobs/" + id + "/results"
	if wait {
		path += "?wait=1"
	}
	req, err := http.NewRequest("GET", c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var env struct {
			Error *JobError `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error != nil {
			return nil, env.Error
		}
		return nil, fmt.Errorf("service: HTTP %d fetching results", resp.StatusCode)
	}
	var out []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("service: bad JSONL line: %w", err)
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

// Profile fetches a job's exploration profile. format "" returns the
// gzipped pprof protobuf; "text" and "json" return the hotspot report.
func (c *Client) Profile(id, format string) ([]byte, error) {
	path := "/v1/jobs/" + id + "/profile"
	if format != "" {
		path += "?format=" + format
	}
	resp, err := c.HTTP.Get(c.Base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var env struct {
			Error *JobError `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error != nil {
			return nil, env.Error
		}
		return nil, fmt.Errorf("service: HTTP %d fetching profile", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// Runs fetches the run-ledger history; digest "" returns everything.
func (c *Client) Runs(digest string) (*RunsResponse, error) {
	path := "/v1/runs"
	if digest != "" {
		path += "?digest=" + digest
	}
	var out RunsResponse
	if err := c.do("GET", path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Trend fetches one digest's series with its regression verdict.
func (c *Client) Trend(digest string) (*TrendResponse, error) {
	var out TrendResponse
	if err := c.do("GET", "/v1/runs/"+digest, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// StreamEvents consumes a job's SSE progress stream, invoking fn per
// event with its name ("snapshot" or "done"). It returns when the
// stream ends (job done / server closed it), fn returns false, or the
// timeout expires; the events seen so far are returned either way.
func (c *Client) StreamEvents(id string, timeout time.Duration, fn func(name string, ev ProgressEvent) bool) ([]ProgressEvent, error) {
	req, err := http.NewRequest("GET", c.Base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	cl := *c.HTTP
	cl.Timeout = timeout
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var env struct {
			Error *JobError `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error != nil {
			return nil, env.Error
		}
		return nil, fmt.Errorf("service: HTTP %d on events stream", resp.StatusCode)
	}
	var out []ProgressEvent
	name := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev ProgressEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return out, fmt.Errorf("service: bad SSE data line: %w", err)
			}
			out = append(out, ev)
			if fn != nil && !fn(name, ev) {
				return out, nil
			}
			if name == "done" {
				return out, nil
			}
		}
	}
	// A timeout mid-stream is expected when the caller only wanted a
	// few snapshots of a long job; the events read so far stand.
	return out, nil
}

// Metrics fetches the Prometheus text exposition (tests and smokes).
func (c *Client) Metrics() (string, error) {
	resp, err := c.HTTP.Get(c.Base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
