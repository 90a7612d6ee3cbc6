package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"mpress/internal/memsim"
	"mpress/internal/runner"
	"mpress/internal/serve/api"
	"mpress/internal/serve/client"
	"mpress/internal/units"
)

// countRuns wraps s.runJob so the test can count how many requests
// actually reached the runner.
func countRuns(s *Server) *atomic.Int64 {
	var n atomic.Int64
	inner := s.runJob
	s.runJob = func(ctx context.Context, j *runner.Job) runner.JobResult {
		n.Add(1)
		return inner(ctx, j)
	}
	return &n
}

// stubReport makes s.runJob answer instantly with an empty report.
func stubReport(s *Server) {
	s.runJob = func(ctx context.Context, j *runner.Job) runner.JobResult {
		return runner.JobResult{Job: j, Report: &runner.Report{Config: j.Config}}
	}
}

// memoDaemon starts a daemon with opts and returns its client; the
// cleanup drains it.
func memoDaemon(t *testing.T, opts Options, setup func(*Server)) (*Server, *client.Client) {
	t.Helper()
	opts.Logger = testLogger(t)
	if opts.Runner.Workers == 0 {
		opts.Runner.Workers = 2
	}
	s := New(opts)
	setup(s)
	cl, cancel, wait := startDaemon(t, s)
	t.Cleanup(func() {
		cl.HTTPClient.CloseIdleConnections()
		cancel()
		if err := wait(); err != nil {
			t.Errorf("serve exit: %v", err)
		}
	})
	return s, cl
}

func mustPlan(t *testing.T, cl *client.Client, cfg runner.Config) *api.PlanResponse {
	t.Helper()
	resp, err := cl.Plan(context.Background(), cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func reportJSON(t *testing.T, resp *api.PlanResponse) []byte {
	t.Helper()
	js, err := json.Marshal(resp.Report)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestResultMemoSequential: repeated requests for one real job run it
// once; every response has its own ID and byte-identical report JSON
// and plan bytes, and every ID serves the same Chrome trace.
func TestResultMemoSequential(t *testing.T) {
	var runs *atomic.Int64
	s, cl := memoDaemon(t, Options{}, func(s *Server) { runs = countRuns(s) })
	cfg := testConfig(t, runner.SystemMPress)

	const n = 4
	resps := make([]*api.PlanResponse, n)
	for i := range resps {
		resps[i] = mustPlan(t, cl, cfg)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("%d identical requests ran the job %d times, want 1", n, got)
	}
	first := resps[0]
	if len(first.Plan) == 0 || first.PlanCacheHit || len(first.StageMS) == 0 {
		t.Fatalf("first response: plan %d bytes, cache hit %v, stages %v", len(first.Plan), first.PlanCacheHit, first.StageMS)
	}
	var firstTrace bytes.Buffer
	if err := cl.Trace(context.Background(), first.ID, &firstTrace); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for i, r := range resps {
		if ids[r.ID] {
			t.Errorf("response %d reuses ID %s", i, r.ID)
		}
		ids[r.ID] = true
		if !bytes.Equal(reportJSON(t, r), reportJSON(t, first)) {
			t.Errorf("response %d: report JSON differs from the first", i)
		}
		if !bytes.Equal(r.Plan, first.Plan) {
			t.Errorf("response %d: plan bytes differ from the first", i)
		}
		if i > 0 && (!r.PlanCacheHit || len(r.StageMS) != 0) {
			t.Errorf("memo hit %d: cache hit %v, stages %v", i, r.PlanCacheHit, r.StageMS)
		}
		var tr bytes.Buffer
		if err := cl.Trace(context.Background(), r.ID, &tr); err != nil {
			t.Fatalf("trace of %s: %v", r.ID, err)
		}
		if !bytes.Equal(tr.Bytes(), firstTrace.Bytes()) {
			t.Errorf("trace of %s differs from the first", r.ID)
		}
	}
	body := scrapeMetrics(t, cl)
	if h, m := metricValue(t, body, "mpressd_result_memo_hits_total"), metricValue(t, body, "mpressd_result_memo_misses_total"); h != n-1 || m != 1 {
		t.Errorf("memo hits/misses = %v/%v, want %d/1", h, m, n-1)
	}
	if st := s.runner.Stats(); st.Jobs != 1 {
		t.Errorf("runner completed %d jobs, want 1", st.Jobs)
	}
}

// TestResultMemoConcurrent: a burst of identical first requests runs
// the job once — the singleflight collapses the burst, and a request
// that arrives as the flight settles finds the memo.
func TestResultMemoConcurrent(t *testing.T) {
	var runs *atomic.Int64
	_, cl := memoDaemon(t, Options{QueueDepth: 64}, func(s *Server) {
		stubReport(s)
		runs = countRuns(s)
	})
	cfg := testConfig(t, runner.SystemMPress)

	const burst = 32
	var wg sync.WaitGroup
	reports := make([][]byte, burst)
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cl.Plan(context.Background(), cfg, "")
			if err == nil {
				reports[i], err = json.Marshal(resp.Report)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !bytes.Equal(reports[i], reports[0]) {
			t.Errorf("request %d: report differs", i)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("%d concurrent identical requests ran the job %d times, want 1", burst, got)
	}
}

// TestResultMemoSkipsErrors: timeouts and job failures are never
// memoized — the next request for the fingerprint runs again — while
// the first success is.
func TestResultMemoSkipsErrors(t *testing.T) {
	outcomes := []error{context.DeadlineExceeded, errors.New("planner failed"), nil}
	var runs atomic.Int64
	_, cl := memoDaemon(t, Options{}, func(s *Server) {
		s.runJob = func(ctx context.Context, j *runner.Job) runner.JobResult {
			if err := outcomes[runs.Add(1)-1]; err != nil {
				return runner.JobResult{Job: j, Err: err}
			}
			return runner.JobResult{Job: j, Report: &runner.Report{Config: j.Config}}
		}
	})
	cfg := testConfig(t, runner.SystemMPress)
	for i, want := range []int{http.StatusGatewayTimeout, http.StatusUnprocessableEntity, http.StatusOK, http.StatusOK} {
		_, err := cl.Plan(context.Background(), cfg, "")
		var apiErr *api.Error
		switch {
		case want == http.StatusOK && err != nil:
			t.Fatalf("request %d: %v", i, err)
		case want != http.StatusOK && (!errors.As(err, &apiErr) || apiErr.Status != want):
			t.Fatalf("request %d: error %v, want status %d", i, err, want)
		}
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("runs = %d, want 3 (two failures re-run, then one memoized success)", got)
	}
}

// TestResultMemoOOM: an OOM report is a deterministic outcome, not an
// error, so it is memoized like any other.
func TestResultMemoOOM(t *testing.T) {
	var runs *atomic.Int64
	_, cl := memoDaemon(t, Options{}, func(s *Server) {
		s.runJob = func(ctx context.Context, j *runner.Job) runner.JobResult {
			return runner.JobResult{Job: j, Report: &runner.Report{Config: j.Config, OOM: &memsim.OOMError{
				Device: "GPU0", Requested: units.GiB, InUse: 31 * units.GiB, Capacity: 32 * units.GiB, What: "activation",
			}}}
		}
		runs = countRuns(s)
	})
	cfg := testConfig(t, runner.SystemMPress)
	for i := 0; i < 2; i++ {
		if resp := mustPlan(t, cl, cfg); !resp.Report.Failed() {
			t.Errorf("request %d: report lost its OOM", i)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("OOM job ran %d times, want 1", got)
	}
}

// TestResultMemoPlanWorkers: PlanWorkers is outside the fingerprint,
// so requests differing only there share one run, yet each report
// echoes its own config.
func TestResultMemoPlanWorkers(t *testing.T) {
	var runs *atomic.Int64
	_, cl := memoDaemon(t, Options{}, func(s *Server) {
		stubReport(s)
		runs = countRuns(s)
	})
	for _, pw := range []int{1, 3} {
		cfg := testConfig(t, runner.SystemMPress)
		cfg.PlanWorkers = pw
		if got := mustPlan(t, cl, cfg).Report.Config.PlanWorkers; got != pw {
			t.Errorf("PlanWorkers %d request echoed PlanWorkers %d", pw, got)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("PlanWorkers variants ran %d times, want 1", got)
	}
}

// TestResultMemoEviction: RetainJobs bounds the memo; a fingerprint
// whose records have all been evicted runs again.
func TestResultMemoEviction(t *testing.T) {
	var runs *atomic.Int64
	_, cl := memoDaemon(t, Options{RetainJobs: 2}, func(s *Server) {
		stubReport(s)
		runs = countRuns(s)
	})
	cfgs := make([]runner.Config, 3)
	for i := range cfgs {
		cfgs[i] = testConfig(t, runner.SystemMPress)
		cfgs[i].Minibatches = i + 2
	}
	for _, step := range []struct {
		cfg  int
		runs int64
	}{
		{0, 1}, {1, 2}, {2, 3}, // the third fingerprint evicts the first
		{2, 3}, // retained: a hit
		{0, 4}, // evicted: runs again
	} {
		mustPlan(t, cl, cfgs[step.cfg])
		if got := runs.Load(); got != step.runs {
			t.Fatalf("after config %d: runs = %d, want %d", step.cfg, got, step.runs)
		}
	}
}
