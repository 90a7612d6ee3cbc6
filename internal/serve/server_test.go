package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mpress/internal/cluster"
	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/runner"
	"mpress/internal/serve/api"
	"mpress/internal/serve/client"
)

func testConfig(t *testing.T, sys runner.System) runner.Config {
	t.Helper()
	m, err := model.BertVariants.Lookup("0.64B")
	if err != nil {
		t.Fatal(err)
	}
	return runner.Config{
		Topology:       hw.DGX1(),
		Model:          m,
		Schedule:       pipeline.PipeDream,
		System:         sys,
		MicrobatchSize: 12,
	}
}

// startDaemon serves s on a loopback listener and returns a client,
// the shutdown trigger, and a wait-for-exit func that reports Serve's
// error.
func startDaemon(t *testing.T, s *Server) (*client.Client, context.CancelFunc, func() error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ctx, ln) }()
	cl := client.New("http://" + ln.Addr().String())
	cl.HTTPClient = &http.Client{Transport: &http.Transport{}}
	return cl, cancel, func() error { return <-errc }
}

// waitGoroutines fails the test if the goroutine count does not settle
// back to the baseline — the stdlib-only stand-in for goleak.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEndToEndPlanParity is the acceptance check: a plan served over
// the wire round-trips through plan.Load and is byte-for-byte the plan
// an in-process runner.Train produces for the same config.
func TestEndToEndPlanParity(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Options{Runner: runner.Options{Workers: 2}, Logger: testLogger(t)})
	cl, cancel, wait := startDaemon(t, s)

	cfg := testConfig(t, runner.SystemMPress)
	if err := cl.Healthy(context.Background()); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp, err := cl.Plan(context.Background(), cfg, "")
	if err != nil {
		t.Fatalf("remote plan: %v", err)
	}
	if resp.Report == nil || resp.Report.Failed() {
		t.Fatalf("remote report: %+v", resp.Report)
	}
	if len(resp.Plan) == 0 {
		t.Fatal("no plan on the wire")
	}

	// The wire plan round-trips through plan.Load.
	remotePlan, label, err := plan.Load(bytes.NewReader(resp.Plan))
	if err != nil {
		t.Fatalf("wire plan does not load: %v", err)
	}
	if remotePlan == nil || label != resp.Fingerprint {
		t.Fatalf("wire plan label = %q, want fingerprint %q", label, resp.Fingerprint)
	}

	// Byte-for-byte parity with the in-process result: the canonical
	// plan file reconstructed from the wire equals the plan.Save bytes
	// of a local runner.Train for the same config.
	localRep, err := runner.Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, err := runner.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if err := j.SavePlan(&local, localRep.Plan); err != nil {
		t.Fatal(err)
	}
	canonical, err := resp.CanonicalPlanFile()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), canonical) {
		t.Errorf("remote plan differs from local plan:\nlocal  %d bytes\nremote %d bytes",
			local.Len(), len(canonical))
	}
	if resp.Report.TFLOPS != localRep.TFLOPS || resp.Report.Duration != localRep.Duration {
		t.Errorf("remote report %v/%v, local %v/%v",
			resp.Report.TFLOPS, resp.Report.Duration, localRep.TFLOPS, localRep.Duration)
	}

	// A second identical request hits the daemon's plan cache.
	resp2, err := cl.Plan(context.Background(), cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.PlanCacheHit {
		t.Error("second identical request should hit the plan cache")
	}
	if !bytes.Equal(resp2.Plan, resp.Plan) {
		t.Error("cached plan differs on the wire")
	}

	// The completed job's Chrome trace streams back and parses.
	var tr bytes.Buffer
	if err := cl.Trace(context.Background(), resp.ID, &tr); err != nil {
		t.Fatalf("trace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	jobs, err := cl.Jobs(context.Background())
	if err != nil || len(jobs.Jobs) != 2 {
		t.Fatalf("jobs = %+v, err %v (want 2 retained)", jobs, err)
	}

	// Unknown job traces 404 as an api.Error.
	var apiErr *api.Error
	if err := cl.Trace(context.Background(), "job-nope", &bytes.Buffer{}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("unknown trace error = %v", err)
	}

	cl.HTTPClient.CloseIdleConnections()
	cancel()
	if err := wait(); err != nil {
		t.Fatalf("serve exit: %v", err)
	}
	waitGoroutines(t, base)
}

// testLogger routes the daemon's request log through t.Log. Every test
// waits for Serve to return before finishing, so no log line can land
// after the test completes.
func testLogger(t *testing.T) *log.Logger {
	return log.New(testLogWriter{t}, "", 0)
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("mpressd: %s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// TestSweepEndpoint runs a mixed batch: valid jobs plan, invalid
// configs surface as per-result errors in input order.
func TestSweepEndpoint(t *testing.T) {
	s := New(Options{Runner: runner.Options{Workers: 2}, Logger: testLogger(t)})
	cl, cancel, wait := startDaemon(t, s)
	defer func() { cancel(); _ = wait() }()

	cfgs := []runner.Config{
		testConfig(t, runner.SystemRecompute),
		{}, // invalid: no topology
		testConfig(t, runner.SystemZeRO3),
	}
	resp, err := cl.Sweep(context.Background(), cfgs, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	if r := resp.Results[0]; r.Error != "" || r.Response == nil || r.Response.Report.Failed() {
		t.Errorf("result 0 = %+v", r)
	}
	if r := resp.Results[1]; r.Error == "" || r.Response != nil {
		t.Errorf("invalid config should error: %+v", r)
	}
	if r := resp.Results[2]; r.Error != "" || r.Response == nil {
		t.Errorf("zero job = %+v", r)
	}
	// ZeRO baselines produce no plan.
	if len(resp.Results[2].Response.Plan) != 0 {
		t.Error("ZeRO job should carry no plan")
	}
	cl.HTTPClient.CloseIdleConnections()
}

// TestSaturationAndDrain fills the admission queue with jobs blocked
// inside the runner stub, verifies overflow requests get 429 +
// Retry-After, then triggers shutdown and verifies the blocked jobs
// drain to completion with no goroutine leaks.
func TestSaturationAndDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	const depth = 2
	s := New(Options{
		Runner:     runner.Options{Workers: 1},
		QueueDepth: depth,
		Logger:     testLogger(t),
	})
	admitted := make(chan struct{}, depth)
	release := make(chan struct{})
	s.runJob = func(ctx context.Context, j *runner.Job) runner.JobResult {
		admitted <- struct{}{}
		<-release
		return runner.JobResult{Job: j, Report: &runner.Report{Config: j.Config}}
	}
	cl, cancel, wait := startDaemon(t, s)

	cfg := testConfig(t, runner.SystemMPress)
	var wg sync.WaitGroup
	type outcome struct {
		resp *api.PlanResponse
		err  error
	}
	slow := make([]outcome, depth)
	for i := 0; i < depth; i++ {
		// Distinct fingerprints: identical concurrent requests would
		// collapse into one flight and hold only one runJob slot.
		c := cfg
		c.Minibatches = i + 2
		wg.Add(1)
		go func(i int, c runner.Config) {
			defer wg.Done()
			resp, err := cl.Plan(context.Background(), c, "")
			slow[i] = outcome{resp, err}
		}(i, c)
	}
	// Both slots are held inside runJob before we probe saturation.
	for i := 0; i < depth; i++ {
		select {
		case <-admitted:
		case <-time.After(5 * time.Second):
			t.Fatal("jobs never admitted")
		}
	}

	// The queue is full: further requests are rejected immediately.
	var rejections int
	for i := 0; i < 4; i++ {
		_, err := cl.Plan(context.Background(), cfg, "")
		var apiErr *api.Error
		if !errors.As(err, &apiErr) {
			t.Fatalf("overflow request %d: %v", i, err)
		}
		if !apiErr.IsSaturated() {
			t.Fatalf("overflow request %d: status %d", i, apiErr.Status)
		}
		if apiErr.RetryAfterDuration() < time.Second {
			t.Errorf("Retry-After hint %q too small", apiErr.RetryAfter)
		}
		rejections++
	}

	// Saturation is visible on /metrics.
	metricsBody := scrapeMetrics(t, cl)
	wantLines := []string{
		fmt.Sprintf("mpressd_rejected_total{endpoint=\"plan\"} %d", rejections),
		fmt.Sprintf("mpressd_queue_depth %d", depth),
		fmt.Sprintf("mpressd_queue_capacity %d", depth),
	}
	for _, want := range wantLines {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsBody)
		}
	}

	// SIGTERM equivalent: drain begins while both jobs are in flight...
	cancel()
	// ...give Shutdown a moment to close listeners, then release the
	// jobs: they must complete and deliver 200s to their clients.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, o := range slow {
		if o.err != nil {
			t.Errorf("in-flight request %d dropped during drain: %v", i, o.err)
		} else if o.resp.Fingerprint == "" {
			t.Errorf("in-flight request %d: empty response", i)
		}
	}
	if err := wait(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cl.HTTPClient.CloseIdleConnections()
	waitGoroutines(t, base)
}

func scrapeMetrics(t *testing.T, cl *client.Client) string {
	t.Helper()
	res, err := cl.HTTPClient.Get(cl.BaseURL + api.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type %q", ct)
	}
	return buf.String()
}

// TestRequestTimeout propagates a tiny deadline into the planner and
// surfaces it as 504.
func TestRequestTimeout(t *testing.T) {
	s := New(Options{Runner: runner.Options{Workers: 1}, Logger: testLogger(t)})
	cl, cancel, wait := startDaemon(t, s)
	defer func() { cancel(); _ = wait() }()

	_, err := cl.Plan(context.Background(), testConfig(t, runner.SystemMPress), "1ms")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("timeout error = %v", err)
	}
	cl.HTTPClient.CloseIdleConnections()
}

// TestBadRequests covers the 400 surface: bad JSON, bad timeout
// strings, invalid configs, oversized sweeps and bodies.
func TestBadRequests(t *testing.T) {
	s := New(Options{Runner: runner.Options{Workers: 1}, MaxSweepConfigs: 2, Logger: testLogger(t)})
	cl, cancel, wait := startDaemon(t, s)
	defer func() { cancel(); _ = wait() }()

	post := func(path, body string) int {
		res, err := cl.HTTPClient.Post(cl.BaseURL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		return res.StatusCode
	}
	if code := post(api.PathPlan, "{nope"); code != http.StatusBadRequest {
		t.Errorf("bad JSON: %d", code)
	}
	if code := post(api.PathPlan, `{"config":{},"timeout":"never"}`); code != http.StatusBadRequest {
		t.Errorf("bad timeout: %d", code)
	}
	if code := post(api.PathSweep, `{"configs":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty sweep: %d", code)
	}
	if code := post(api.PathSweep, `{"configs":[{},{},{}]}`); code != http.StatusBadRequest {
		t.Errorf("oversized sweep: %d", code)
	}
	// A sweep body past maxPlanBody is a 400, as for plan and search,
	// however decodable: 20 MiB padded inside an unknown field.
	if code := post(api.PathSweep, `{"pad":"`+strings.Repeat("x", 20<<20)+`","configs":[{}]}`); code != http.StatusBadRequest {
		t.Errorf("20 MiB sweep body: %d", code)
	}
	// An invalid config is a 400 with a cause.
	_, err := cl.Plan(context.Background(), runner.Config{}, "")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Message == "" {
		t.Errorf("invalid config error = %v", err)
	}
	// Out-of-range enums are 400s that list the valid values, never a
	// silent run under some other schedule or a late 422.
	for _, tc := range []struct {
		mutate func(*runner.Config)
		want   string
	}{
		{func(c *runner.Config) { c.Schedule = 7 }, "valid schedules"},
		{func(c *runner.Config) { c.Strategy = 7 }, "valid strategies"},
	} {
		cfg := testConfig(t, runner.SystemMPress)
		tc.mutate(&cfg)
		_, err := cl.Plan(context.Background(), cfg, "")
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || !strings.Contains(apiErr.Message, tc.want) {
			t.Errorf("out-of-range enum error = %v, want 400 naming %s", err, tc.want)
		}
	}
	cl.HTTPClient.CloseIdleConnections()
}

// TestRingStepBudgetIs400: a data-parallel job whose gradient ring
// steps alone overrun the kernel's event budget (bert-0.35B on 1,024
// Ethernet25G DGX-1 nodes for 4,000 minibatches) is the caller's
// mistake: a 400 before any worker runs it.
func TestRingStepBudgetIs400(t *testing.T) {
	s := New(Options{Runner: runner.Options{Workers: 1}, Logger: testLogger(t)})
	cl, cancel, wait := startDaemon(t, s)
	defer func() { cancel(); _ = wait() }()

	m, err := model.BertVariants.Lookup("0.35B")
	if err != nil {
		t.Fatal(err)
	}
	cfg := runner.Config{
		Model:          m,
		Schedule:       pipeline.PipeDream,
		System:         runner.SystemPlain,
		MicrobatchSize: 4,
		Minibatches:    4000,
		Cluster:        cluster.MustNew(1024, hw.DGX1(), cluster.Ethernet25G()),
	}
	_, err = cl.Plan(context.Background(), cfg, "")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || !strings.Contains(apiErr.Message, "event budget") {
		t.Fatalf("over-budget job error = %v, want HTTP 400 naming the event budget", err)
	}
	cl.HTTPClient.CloseIdleConnections()
}

// TestInfeasibleMappingIs400 is the regression test for the crash this
// used to be: a config that survives validation but has no feasible
// stage→GPU mapping (8 pipeline stages on the 4-GPU plane a TPDegree=2
// grid leaves) made mapping.Search panic inside the worker. It must
// now surface as a 400 with the infeasibility spelled out, and the
// daemon must keep serving afterwards.
func TestInfeasibleMappingIs400(t *testing.T) {
	s := New(Options{Runner: runner.Options{Workers: 1}, Logger: testLogger(t)})
	cl, cancel, wait := startDaemon(t, s)
	defer func() { cancel(); _ = wait() }()

	cfg := testConfig(t, runner.SystemMPress)
	cfg.TPDegree = 2
	cfg.Stages = 8 // plane is 8/2 = 4 GPUs wide
	_, err := cl.Plan(context.Background(), cfg, "")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("infeasible mapping error = %v, want HTTP 400", err)
	}
	if !strings.Contains(apiErr.Message, "stage") {
		t.Errorf("error message %q does not name the infeasibility", apiErr.Message)
	}

	// The worker survived the infeasible job: a sane config still plans.
	resp, err := cl.Plan(context.Background(), testConfig(t, runner.SystemMPress), "")
	if err != nil || resp.Report == nil || resp.Report.Failed() {
		t.Fatalf("daemon unhealthy after infeasible job: resp=%+v err=%v", resp, err)
	}
	cl.HTTPClient.CloseIdleConnections()
}

// TestMetricsFormat sanity-checks the Prometheus text exposition:
// counters and histograms render with sorted, stable label sets.
func TestMetricsFormat(t *testing.T) {
	m := newMetrics()
	m.observe("plan", "200", 3*time.Millisecond)
	m.observe("plan", "200", 700*time.Millisecond)
	m.observe("plan", "429", time.Millisecond)
	m.observe("sweep", "200", 40*time.Millisecond)
	m.reject("plan")
	var buf bytes.Buffer
	m.writeText(&buf, []gauge{{"mpressd_queue_depth", "gauge", "q", 3}})
	out := buf.String()
	for _, want := range []string{
		`mpressd_requests_total{endpoint="plan",code="200"} 2`,
		`mpressd_requests_total{endpoint="plan",code="429"} 1`,
		`mpressd_requests_total{endpoint="sweep",code="200"} 1`,
		`mpressd_rejected_total{endpoint="plan"} 1`,
		`mpressd_request_seconds_bucket{endpoint="plan",le="0.001"} 1`,
		`mpressd_request_seconds_bucket{endpoint="plan",le="0.005"} 2`,
		`mpressd_request_seconds_bucket{endpoint="plan",le="+Inf"} 3`,
		`mpressd_request_seconds_count{endpoint="plan"} 3`,
		"# TYPE mpressd_requests_total counter",
		"# TYPE mpressd_request_seconds histogram",
		"mpressd_queue_depth 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}
