// Package serve implements mpressd, the planning-as-a-service daemon:
// an HTTP/JSON front door over the internal/runner layer. MPress
// Static plans offline (paper Sec. III-B) — the planner's output is a
// persistable artifact a long-running training job loads — so planning
// is a natural service: clients submit a runner.Config (or a batch),
// the daemon executes it through a shared Runner with a bounded
// LRU plan cache, and returns the report plus the plan in the
// plan.Save file format.
//
// The daemon is governed end to end: a bounded admission queue sheds
// load with 429 + Retry-After when full, every request carries a
// server-side deadline, SIGTERM drains in-flight jobs before exit, and
// /metrics exposes request latencies, queue depth, cache and runner
// counters in Prometheus text format.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"mpress/internal/fleet"
	"mpress/internal/mapping"
	"mpress/internal/pipeline"
	"mpress/internal/runner"
	"mpress/internal/search"
	"mpress/internal/serve/api"
)

// Options configures a Server. The zero value serves with sensible
// defaults.
type Options struct {
	// Runner configures the embedded runner (its worker pool size).
	// OnJobDone and KeepArtifacts are owned by the server and must be
	// left unset.
	Runner runner.Options
	// QueueDepth bounds how many plan/sweep requests may be in service
	// or queued at once; beyond it the daemon answers 429. Default 16.
	QueueDepth int
	// DefaultTimeout bounds a request that names no timeout; a
	// request's own timeout is clamped to MaxTimeout. Defaults: 2m/10m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetainJobs bounds how many served plan requests the job store
	// keeps: their execution timelines for GET /v1/jobs/<id>/trace,
	// and the settled results that answer repeated requests for the
	// same fingerprint without running the job again (the result
	// memo). Default 64; negative disables both.
	RetainJobs int
	// DrainTimeout bounds graceful shutdown: how long Serve waits for
	// in-flight requests after its context is cancelled. Default 30s.
	DrainTimeout time.Duration
	// maxSweepConfigs bounds one sweep request's batch size; zero or
	// less means 4096. Only tests set it.
	maxSweepConfigs int
	// Fleet, when set, makes this daemon one peer of a planning fleet:
	// plan and search requests go to the ring owner of their route key
	// (runner.Job.RouteKey), forwarded one hop and guarded by
	// X-MPress-Forwarded, so every job sharing a plan is served by one
	// owner's caches; owners collapse concurrent identical requests
	// through a singleflight group. Sweeps are served where they land.
	// Nil serves standalone.
	Fleet *fleet.Fleet
	// Logger receives structured request logs; default logs to stderr.
	Logger *log.Logger
}

// Server is the mpressd HTTP service.
type Server struct {
	opts   Options
	runner *runner.Runner
	adm    *admission
	met    *metrics
	store  *jobStore
	logger *log.Logger
	mux    *http.ServeMux

	reqSeq   atomic.Int64
	jobSeq   atomic.Int64
	draining atomic.Bool

	// Resilience counters, accumulated over simulations run (memo hits
	// leave them unchanged).
	failuresTotal  atomic.Int64
	ckptsTotal     atomic.Int64
	ckptBytesTotal atomic.Int64

	// Result-memo counters: plan requests answered from a settled
	// result, and plan requests that ran their job.
	memoHits   atomic.Int64
	memoMisses atomic.Int64

	// Fleet state: membership view (nil standalone), the HTTP client
	// for forwards, and the singleflight group collapsing concurrent
	// identical plan requests.
	fleet *fleet.Fleet
	peers *http.Client
	sf    fleet.Group

	// searchTab is the daemon's transposition table for /v1/search: one
	// strategy evaluation per job fingerprint, shared across searches.
	searchTab *search.MemTable

	// Fleet counters (all zero when standalone; the metric families are
	// emitted regardless so dashboards need no fleet-conditional logic).
	forwardsSent     atomic.Int64
	forwardErrors    atomic.Int64
	forwardsReceived atomic.Int64
	sfWaits          atomic.Int64

	// runJob executes one job; tests stub it to make service time
	// controllable.
	runJob func(ctx context.Context, j *runner.Job) runner.JobResult
}

// New builds a Server.
func New(opts Options) *Server {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.DefaultTimeout <= 0 {
		opts.DefaultTimeout = 2 * time.Minute
	}
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = 10 * time.Minute
	}
	if opts.RetainJobs == 0 {
		opts.RetainJobs = 64
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 30 * time.Second
	}
	if opts.maxSweepConfigs <= 0 {
		opts.maxSweepConfigs = 4096
	}
	if opts.Logger == nil {
		opts.Logger = log.New(os.Stderr, "mpressd: ", log.LstdFlags|log.Lmicroseconds)
	}
	s := &Server{
		opts:   opts,
		runner: runner.New(opts.Runner),
		adm:    newAdmission(opts.QueueDepth),
		met:    newMetrics(),
		store:  newJobStore(opts.RetainJobs),
		logger: opts.Logger,
		fleet:  opts.Fleet,
		peers:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},

		searchTab: search.NewMemTable(),
	}
	s.runJob = func(ctx context.Context, j *runner.Job) runner.JobResult {
		return s.runner.RunKeep(ctx, j)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+api.PathPlan, s.instrument("plan", s.handlePlan))
	mux.HandleFunc("POST "+api.PathSweep, s.instrument("sweep", s.handleSweep))
	mux.HandleFunc("GET "+api.PathJobs, s.instrument("jobs", s.handleJobs))
	mux.HandleFunc("GET "+api.PathJobs+"/{id}/trace", s.instrument("trace", s.handleTrace))
	mux.HandleFunc("GET "+api.PathHealthz, s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET "+api.PathMetrics, s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("POST "+api.PathSearch, s.instrument("search", s.handleSearch))
	s.mux = mux
	return s
}

// Handler returns the daemon's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Runner exposes the embedded runner (its Stats feed /metrics).
func (s *Server) Runner() *runner.Runner { return s.runner }

// Serve runs the daemon on ln until ctx is cancelled, then drains:
// listeners close, in-flight requests run to completion (bounded by
// DrainTimeout), and only then does Serve return — SIGTERM never
// abandons a half-planned job.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	s.logger.Printf("draining: waiting up to %v for in-flight requests", s.opts.DrainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	<-errc // reap http.ErrServerClosed from the Serve goroutine
	s.peers.CloseIdleConnections()
	if err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	s.logger.Printf("drained cleanly")
	return nil
}

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request IDs, structured logging and
// latency/count metrics.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		d := time.Since(start)
		s.met.observe(endpoint, strconv.Itoa(sw.status), d)
		s.logger.Printf("req=%s endpoint=%s method=%s path=%s status=%d dur=%s",
			id, endpoint, r.Method, r.URL.Path, sw.status, d.Round(time.Microsecond))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, &api.Error{
		Status:  status,
		Code:    api.CodeForStatus(status),
		Message: fmt.Sprintf(format, args...),
	})
}

// rejectSaturated answers 429 with the drain-rate Retry-After hint.
func (s *Server) rejectSaturated(w http.ResponseWriter, endpoint string) {
	s.met.reject(endpoint)
	retry := s.adm.retryAfter()
	w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds())))
	writeJSON(w, http.StatusTooManyRequests, &api.Error{
		Status:     http.StatusTooManyRequests,
		Code:       api.CodeSaturated,
		Message:    "planning queue is full",
		RetryAfter: retry.String(),
	})
}

// requestTimeout resolves a request's server-side deadline.
func (s *Server) requestTimeout(spec string) (time.Duration, error) {
	d := s.opts.DefaultTimeout
	if spec != "" {
		parsed, err := time.ParseDuration(spec)
		if err != nil || parsed <= 0 {
			return 0, fmt.Errorf("bad timeout %q", spec)
		}
		d = parsed
	}
	if d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return d, nil
}

// maxPlanBody bounds plan, search and sweep request payloads.
const maxPlanBody = 16 << 20

// readBody reads a request body of at most maxPlanBody bytes; a longer
// one is an error, never silently truncated.
func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxPlanBody+1))
	if err != nil {
		return nil, fmt.Errorf("read request: %v", err)
	}
	if len(body) > maxPlanBody {
		return nil, fmt.Errorf("request body exceeds the %d-byte limit", maxPlanBody)
	}
	return body, nil
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req api.PlanRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	timeout, err := s.requestTimeout(req.Timeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := runner.NewJob(req.Config)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.forwarded(w, r, api.PathPlan, body, j.RouteKey()) {
		return
	}
	// Result memo: the job is deterministic, so a fingerprint this
	// daemon has already completed is answered from its settled result
	// without admission, queueing or running the job.
	if res, ok := s.store.lookup(j.Fingerprint()); ok {
		s.memoHits.Add(1)
		writeJSON(w, http.StatusOK, s.response(j, res, nil, true))
		return
	}
	if !s.adm.tryAcquire() {
		s.rejectSaturated(w, "plan")
		return
	}
	start := time.Now()
	defer func() { s.adm.release(time.Since(start)) }()

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	// Collapse concurrent identical requests: with ring routing, every
	// peer sends a given job here, so this in-process group is
	// fleet-wide singleflight — a 64-request burst for one popular job
	// plans (and simulates) exactly once. Jobs that differ only in
	// plan-invariant fields share this owner's plan cache instead.
	type planOutcome struct {
		resp   *api.PlanResponse // the response of the request that ran the job
		res    *result
		status int
		err    error
	}
	key := j.Fingerprint() + "\x00" + req.Timeout
	v, shared, err := s.sf.Do(ctx, key, func() any {
		// A flight for this fingerprint may have settled since the
		// lookup above; checking again under the flight keeps "one run
		// per fingerprint" exact.
		if res, ok := s.store.lookup(j.Fingerprint()); ok {
			s.memoHits.Add(1)
			return planOutcome{res: res}
		}
		s.memoMisses.Add(1)
		resp, res, status, err := s.planJob(ctx, j)
		return planOutcome{resp, res, status, err}
	})
	if err != nil {
		// This waiter's own deadline expired while the leader ran on.
		status := http.StatusGatewayTimeout
		if errors.Is(err, context.Canceled) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "waiting on identical in-flight request: %v", err)
		return
	}
	if shared {
		s.sfWaits.Add(1)
	}
	out := v.(planOutcome)
	switch {
	case out.err != nil:
		writeError(w, out.status, "%v", out.err)
	case out.resp != nil && !shared:
		writeJSON(w, http.StatusOK, out.resp)
	default:
		// A waiter on another request's run, or a late memo hit.
		writeJSON(w, http.StatusOK, s.response(j, out.res, nil, true))
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req api.SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, "sweep has no configs")
		return
	}
	if len(req.Configs) > s.opts.maxSweepConfigs {
		writeError(w, http.StatusBadRequest, "sweep of %d configs exceeds the %d limit",
			len(req.Configs), s.opts.maxSweepConfigs)
		return
	}
	timeout, err := s.requestTimeout(req.Timeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.adm.tryAcquire() {
		s.rejectSaturated(w, "sweep")
		return
	}
	start := time.Now()
	defer func() { s.adm.release(time.Since(start)) }()

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	// Sweeps are served where they land: a batch spans many ring owners
	// by construction.
	resp := api.SweepResponse{Results: make([]api.SweepResult, len(req.Configs))}
	results := s.runner.RunConfigs(ctx, req.Configs)
	for i, res := range results {
		if res.Err != nil {
			resp.Results[i] = api.SweepResult{Error: res.Err.Error()}
			continue
		}
		settled, err := s.settle(res)
		if err != nil {
			resp.Results[i] = api.SweepResult{Error: err.Error()}
			continue
		}
		resp.Results[i] = api.SweepResult{Response: s.response(res.Job, settled, &res, false)}
	}
	writeJSON(w, http.StatusOK, resp)
}

// planJob runs a validated job and settles its result into the job
// store, where it also answers later requests for the fingerprint
// (errors are never memoized).
func (s *Server) planJob(ctx context.Context, j *runner.Job) (*api.PlanResponse, *result, int, error) {
	res := s.runJob(ctx, j)
	if res.Err != nil {
		status := http.StatusUnprocessableEntity
		var infeasible *mapping.InfeasibleError
		var oversize *pipeline.SizeError
		if errors.As(res.Err, &infeasible) || errors.As(res.Err, &oversize) {
			// More stages than devices, or a tensor too large to
			// represent, is a malformed request, not a server fault —
			// one validation cannot see before the search or the build
			// runs. The search used to panic on the first, so the
			// classification doubles as a regression guard.
			status = http.StatusBadRequest
		} else if errors.Is(res.Err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		} else if errors.Is(res.Err, context.Canceled) {
			status = http.StatusServiceUnavailable
		}
		return nil, nil, status, res.Err
	}
	settled, err := s.settle(res)
	if err != nil {
		return nil, nil, http.StatusInternalServerError, err
	}
	return s.response(j, settled, &res, true), settled, http.StatusOK, nil
}

// settle turns a completed run into its immutable result, serializing
// the plan in the plan.Save file format (fingerprint-labelled) and
// extracting the execution timeline when the run kept its artifacts.
// Every simulation is settled exactly once, so this is where the
// resilience counters accumulate.
func (s *Server) settle(run runner.JobResult) (*result, error) {
	rep := run.Report
	if rep == nil {
		return nil, fmt.Errorf("job %s produced no report", run.Job.Fingerprint())
	}
	s.failuresTotal.Add(int64(rep.Failures))
	s.ckptsTotal.Add(int64(rep.Checkpoints))
	s.ckptBytesTotal.Add(int64(rep.CheckpointBytes))
	cfg := run.Job.Config
	res := &result{
		report: rep,
		info: api.JobInfo{
			Fingerprint: run.Job.Fingerprint(),
			System:      cfg.System.String(),
			Model:       cfg.Model.Name,
			Nodes:       nodesOf(cfg),
			Failures:    rep.Failures,
		},
	}
	if rep.Plan != nil {
		var buf bytes.Buffer
		if err := run.Job.SavePlan(&buf, rep.Plan); err != nil {
			return nil, fmt.Errorf("serialize plan: %w", err)
		}
		res.plan = buf.Bytes()
	}
	if st := run.State; st != nil {
		res.timeline = st.Timeline()
		res.info.HasTrace = res.timeline != nil
	}
	return res, nil
}

// nodesOf reports a config's replica count for the wire, zero (elided)
// for single-server jobs.
func nodesOf(c runner.Config) int {
	if n := c.Replicas(); n > 1 {
		return n
	}
	return 0
}

// response assembles the wire response for one request for job j
// served from res, under a fresh job ID, and retains the request in
// the job store when retain is set. run is the runner's outcome when
// this request ran the job itself; nil means res was computed earlier
// (a memo hit or a singleflight waiter), so no stage timings apply and
// a plan on the report was necessarily reused. The report always
// echoes j's own config: fields outside the fingerprint (PlanWorkers)
// may differ between requests sharing one result.
func (s *Server) response(j *runner.Job, res *result, run *runner.JobResult, retain bool) *api.PlanResponse {
	rep := *res.report
	rep.Config = j.Config
	resp := &api.PlanResponse{
		ID:           fmt.Sprintf("job-%06d", s.jobSeq.Add(1)),
		Fingerprint:  j.Fingerprint(),
		Report:       &rep,
		Plan:         res.plan,
		PlanCacheHit: res.plan != nil,
	}
	if run != nil {
		resp.PlanCacheHit = run.PlanCacheHit
		resp.ElapsedMS = float64(run.Elapsed) / float64(time.Millisecond)
		if len(run.StageTimes) > 0 {
			resp.StageMS = make(map[string]float64, len(run.StageTimes))
			for name, d := range run.StageTimes {
				resp.StageMS[name] = float64(d) / float64(time.Millisecond)
			}
		}
	}
	if retain {
		s.store.put(resp.ID, res)
	}
	return resp
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.JobsResponse{Jobs: s.store.list()})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.store.get(id)
	if !ok || rec.res.timeline == nil {
		writeError(w, http.StatusNotFound, "job %q is unknown, has no trace, or has been evicted", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := rec.res.timeline.WriteChrome(w); err != nil {
		s.logger.Printf("trace %s: write: %v", id, err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	held, capacity := s.adm.depth()
	st := s.runner.Stats()
	gauges := []gauge{
		{"mpressd_queue_depth", "gauge", "Admitted requests currently in service or queued.", float64(held)},
		{"mpressd_queue_capacity", "gauge", "Admission queue capacity.", float64(capacity)},
		{"mpressd_jobs_total", "counter", "Jobs completed by the runner.", float64(st.Jobs)},
		{"mpressd_plan_cache_hits_total", "counter", "Plan cache hits.", float64(st.PlanCacheHits)},
		{"mpressd_plan_cache_misses_total", "counter", "Plan cache misses.", float64(st.PlanCacheMisses)},
		{"mpressd_plan_cache_evictions_total", "counter", "Plans evicted by the LRU bound.", float64(st.PlanCacheEvictions)},
		{"mpressd_plan_cache_entries", "gauge", "Plans currently cached.", float64(st.PlanCacheEntries)},
		{"mpressd_plan_cache_bytes", "gauge", "Approximate bytes of cached plans.", float64(st.PlanCacheBytes)},
		{"mpressd_plan_computes_total", "counter", "Planner searches actually run.", float64(st.PlanComputes)},
		{"mpressd_runner_plan_seconds_total", "counter", "Cumulative wall-clock in the planning stage.", st.PlanTime.Seconds()},
		{"mpressd_runner_exec_seconds_total", "counter", "Cumulative wall-clock in the execution stage.", st.ExecTime.Seconds()},
		{"mpressd_retained_jobs", "gauge", "Completed jobs retained for the trace endpoint and the result memo.", float64(len(s.store.list()))},
		{"mpressd_result_memo_hits_total", "counter", "Plan requests answered from a memoized result without running the job.", float64(s.memoHits.Load())},
		{"mpressd_result_memo_misses_total", "counter", "Plan requests that ran their job because no memoized result existed.", float64(s.memoMisses.Load())},
		{"mpressd_failures_injected_total", "counter", "Simulated hardware faults injected across simulations run (memo hits do not count).", float64(s.failuresTotal.Load())},
		{"mpressd_checkpoints_total", "counter", "Checkpoint snapshots taken across simulations run (memo hits do not count).", float64(s.ckptsTotal.Load())},
		{"mpressd_checkpoint_bytes_total", "counter", "Cumulative checkpoint payload bytes across simulations run (memo hits do not count).", float64(s.ckptBytesTotal.Load())},
	}
	fleetPeers := 0
	if s.fleet != nil {
		fleetPeers = s.fleet.Size()
	}
	gauges = append(gauges,
		gauge{"mpressd_fleet_peers", "gauge", "Planning-fleet membership size (0 when standalone).", float64(fleetPeers)},
		gauge{"mpressd_fleet_forwards_sent_total", "counter", "Plan and search requests forwarded to their ring owner.", float64(s.forwardsSent.Load())},
		gauge{"mpressd_fleet_forward_errors_total", "counter", "Forwards that failed and fell back to local service.", float64(s.forwardErrors.Load())},
		gauge{"mpressd_fleet_forwards_received_total", "counter", "Forwarded plan and search requests received from peers.", float64(s.forwardsReceived.Load())},
		gauge{"mpressd_fleet_singleflight_waits_total", "counter", "Plan requests that shared an identical in-flight request's result.", float64(s.sfWaits.Load())},
		gauge{"mpressd_search_table_entries", "gauge", "Strategy evaluations in the auto-search transposition table.", float64(s.searchTab.Len())},
	)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.writeText(w, gauges)
}
