package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpress/internal/fleet"
	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/runner"
	"mpress/internal/serve/api"
	"mpress/internal/serve/client"
)

// testFleet is a local n-peer planning fleet: every peer serves on a
// loopback listener and shares the same membership view.
type testFleet struct {
	servers []*Server
	urls    []string
	cancels []context.CancelFunc
	waits   []func() error
}

// startFleet boots n mpressd peers with a shared membership. Listeners
// are created first so every peer's fleet view can name the final URLs.
func startFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	tf := &testFleet{urls: urls}
	for i := 0; i < n; i++ {
		fl, err := fleet.New(urls[i], urls)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Options{
			Runner:     runner.Options{Workers: 2},
			QueueDepth: 128,
			Fleet:      fl,
			Logger:     testLogger(t),
		})
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func(s *Server, ln net.Listener) { errc <- s.Serve(ctx, ln) }(s, lns[i])
		tf.servers = append(tf.servers, s)
		tf.cancels = append(tf.cancels, cancel)
		tf.waits = append(tf.waits, func() error { return <-errc })
	}
	return tf
}

// shutdown drains every peer and reports serve errors.
func (tf *testFleet) shutdown(t *testing.T) {
	t.Helper()
	for _, cancel := range tf.cancels {
		cancel()
	}
	for i, wait := range tf.waits {
		if err := wait(); err != nil {
			t.Errorf("peer %d serve exit: %v", i, err)
		}
	}
}

// peerClient returns a plain single-peer client for one fleet member.
func (tf *testFleet) peerClient(i int) *client.Client {
	cl := client.New(tf.urls[i])
	cl.HTTPClient = &http.Client{Transport: &http.Transport{}}
	return cl
}

// smokeConfigs is the mixed job set the fleet smoke pushes: two Bert
// sizes, planning and non-planning systems, varied minibatch counts —
// distinct fingerprints, some sharing plan keys.
func smokeConfigs(t *testing.T) []runner.Config {
	t.Helper()
	m35, err := model.BertVariants.Lookup("0.35B")
	if err != nil {
		t.Fatal(err)
	}
	base := runner.Config{
		Topology:       hw.DGX1(),
		Model:          m35,
		Schedule:       pipeline.PipeDream,
		System:         runner.SystemMPress,
		MicrobatchSize: 12,
	}
	var cfgs []runner.Config
	for _, mb := range []int{2, 3, 4} {
		c := base
		c.Minibatches = mb
		cfgs = append(cfgs, c)
	}
	rec := base
	rec.System = runner.SystemRecompute
	cfgs = append(cfgs, rec)
	swp := base
	swp.System = runner.SystemGPUCPUSwap
	swp.Minibatches = 3
	cfgs = append(cfgs, swp)
	zero := base
	zero.System = runner.SystemZeRO3 // plans nothing: exercises the no-plan path
	cfgs = append(cfgs, zero)
	return cfgs
}

// localCanonicalPlans precomputes, for each config, the plan.Save
// bytes an in-process runner.Train produces — the byte-parity oracle.
func localCanonicalPlans(t *testing.T, cfgs []runner.Config) [][]byte {
	t.Helper()
	out := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		rep, err := runner.Train(cfg)
		if err != nil {
			t.Fatalf("local train %d: %v", i, err)
		}
		if rep.Plan == nil {
			continue // non-planning system
		}
		j, err := runner.NewJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := j.SavePlan(&buf, rep.Plan); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// metricValue extracts one un-labelled metric's value from a scrape.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %f", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestFleetSmoke is the acceptance run behind `make fleet-smoke`: a
// 3-peer fleet serves 200 mixed requests through the ring-aware
// client; every plan that comes back is byte-identical to a local
// runner.Train, every request went to the ring owner of its route
// key, each distinct plan key was planned exactly once fleet-wide,
// and the fleet drains without leaking a goroutine.
func TestFleetSmoke(t *testing.T) {
	base := runtime.NumGoroutine()
	tf := startFleet(t, 3)

	cfgs := smokeConfigs(t)
	want := localCanonicalPlans(t, cfgs)

	fc, err := client.NewFleet(tf.urls)
	if err != nil {
		t.Fatal(err)
	}

	// 200 requests, skewed toward the first configs (a Zipf-flavored
	// mix: popular jobs dominate, the tail still appears).
	const requests = 200
	picks := make([]int, requests)
	rng := uint64(0x6d70)
	for i := range picks {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		r := rng % 100
		switch {
		case r < 45:
			picks[i] = 0
		case r < 70:
			picks[i] = 1
		case r < 82:
			picks[i] = 2
		case r < 90:
			picks[i] = 3
		case r < 96:
			picks[i] = 4
		default:
			picks[i] = 5
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, requests)
	sem := make(chan struct{}, 6)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cfg := cfgs[picks[i]]
			resp, err := fc.PlanWait(context.Background(), cfg, "")
			if err != nil {
				errs[i] = err
				return
			}
			if want[picks[i]] == nil {
				if len(resp.Plan) != 0 {
					errs[i] = fmt.Errorf("config %d: unexpected plan", picks[i])
				}
				return
			}
			got, err := resp.CanonicalPlanFile()
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, want[picks[i]]) {
				errs[i] = fmt.Errorf("config %d: plan differs from local (%d vs %d bytes)",
					picks[i], len(got), len(want[picks[i]]))
			}
		}(i)
	}
	wg.Wait()
	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			if failed <= 3 {
				t.Errorf("request %d: %v", i, err)
			}
		}
	}
	if failed > 0 {
		t.Fatalf("%d/%d requests failed or diverged", failed, requests)
	}

	// Every request went straight to the ring owner of its route key,
	// and that owner's plan cache planned each distinct plan key once.
	st := fc.Stats()
	if st.Requests != requests {
		t.Errorf("client counted %d requests, want %d", st.Requests, requests)
	}
	wantPerPeer := map[string]int64{}
	planKeys := map[string]bool{}
	for _, pick := range picks {
		j, err := runner.NewJob(cfgs[pick])
		if err != nil {
			t.Fatal(err)
		}
		wantPerPeer[tf.servers[0].fleet.Owner(j.RouteKey())]++
		if j.PlanKey() != "" {
			planKeys[j.PlanKey()] = true
		}
	}
	if fmt.Sprint(st.PerPeer) != fmt.Sprint(wantPerPeer) {
		t.Errorf("per-peer requests %v, want the route-key owners %v", st.PerPeer, wantPerPeer)
	}
	if n := fleetPlanComputes(tf); n != int64(len(planKeys)) {
		t.Errorf("fleet ran %d planner searches for %d distinct plan keys, want one each", n, len(planKeys))
	}

	fc.CloseIdleConnections()
	tf.shutdown(t)
	waitGoroutines(t, base)
}

// TestFleetBurstSingleflight is the popular-fingerprint acceptance
// check: 64 concurrent requests for ONE fingerprint against 3 peers
// compute the plan exactly once fleet-wide, and every caller gets the
// same bytes.
func TestFleetBurstSingleflight(t *testing.T) {
	base := runtime.NumGoroutine()
	tf := startFleet(t, 3)

	cfg := smokeConfigs(t)[0]
	fc, err := client.NewFleet(tf.urls)
	if err != nil {
		t.Fatal(err)
	}

	const burst = 64
	var wg sync.WaitGroup
	plans := make([][]byte, burst)
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A third of the burst hits non-owner peers directly, so the
			// collapse must survive the forwarding path too.
			var resp *api.PlanResponse
			var err error
			if i%3 == 0 {
				resp, err = tf.peerClient(i%len(tf.urls)).Plan(context.Background(), cfg, "")
			} else {
				resp, err = fc.Plan(context.Background(), cfg, "")
			}
			if err != nil {
				errs[i] = err
				return
			}
			plans[i], errs[i] = resp.CanonicalPlanFile()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("burst request %d: %v", i, err)
		}
	}
	for i := 1; i < burst; i++ {
		if !bytes.Equal(plans[i], plans[0]) {
			t.Fatalf("burst request %d got different plan bytes", i)
		}
	}

	if computes := fleetPlanComputes(tf); computes != 1 {
		t.Errorf("burst of %d identical requests ran %d planner searches, want exactly 1", burst, computes)
	}

	fc.CloseIdleConnections()
	tf.shutdown(t)
	waitGoroutines(t, base)
}

// TestFleetForwardParity: a plan requested through a NON-owner peer is
// byte-identical to the local result — forwarding is transparent.
func TestFleetForwardParity(t *testing.T) {
	base := runtime.NumGoroutine()
	tf := startFleet(t, 3)

	cfg := smokeConfigs(t)[0]
	j, err := runner.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	owner := tf.servers[0].fleet.Owner(j.RouteKey())
	nonOwner := -1
	for i, u := range tf.urls {
		if u != owner {
			nonOwner = i
			break
		}
	}
	cl := tf.peerClient(nonOwner)
	resp, err := cl.Plan(context.Background(), cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := resp.CanonicalPlanFile()
	if err != nil {
		t.Fatal(err)
	}
	want := localCanonicalPlans(t, []runner.Config{cfg})[0]
	if !bytes.Equal(got, want) {
		t.Errorf("forwarded plan differs from local (%d vs %d bytes)", len(got), len(want))
	}

	body := scrapeMetrics(t, cl)
	if v := metricValue(t, body, "mpressd_fleet_forwards_sent_total"); v < 1 {
		t.Errorf("non-owner forwarded %v requests, want >= 1", v)
	}
	var received float64
	for i := range tf.urls {
		ocl := tf.peerClient(i)
		received += metricValue(t, scrapeMetrics(t, ocl), "mpressd_fleet_forwards_received_total")
		ocl.HTTPClient.CloseIdleConnections()
	}
	if received < 1 {
		t.Errorf("no peer counted a received forward")
	}

	cl.HTTPClient.CloseIdleConnections()
	tf.shutdown(t)
	waitGoroutines(t, base)
}

// TestFleetForwardFallback: when the ring owner is unreachable, the
// receiving peer plans locally instead of failing the request —
// availability degrades to cache locality, not errors.
func TestFleetForwardFallback(t *testing.T) {
	base := runtime.NumGoroutine()
	// Reserve an address for the dead peer, then close it.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + deadLn.Addr().String()
	deadLn.Close()

	liveLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	liveURL := "http://" + liveLn.Addr().String()
	fl, err := fleet.New(liveURL, []string{liveURL, deadURL})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Runner: runner.Options{Workers: 2}, Fleet: fl, Logger: testLogger(t)})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ctx, liveLn) }()

	// Find a config the DEAD peer owns, so the live peer must try (and
	// fail) to forward it. The minibatch count is outside the route
	// key; the microbatch size is not.
	cfg := smokeConfigs(t)[0]
	found := false
	for mbs := 1; mbs <= 32; mbs++ {
		cfg.MicrobatchSize = mbs
		j, err := runner.NewJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fl.Owner(j.RouteKey()) == deadURL {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no test fingerprint owned by the dead peer")
	}

	cl := client.New(liveURL)
	cl.HTTPClient = &http.Client{Transport: &http.Transport{}}
	resp, err := cl.Plan(context.Background(), cfg, "")
	if err != nil {
		t.Fatalf("request owned by a dead peer failed outright: %v", err)
	}
	got, err := resp.CanonicalPlanFile()
	if err != nil {
		t.Fatal(err)
	}
	want := localCanonicalPlans(t, []runner.Config{cfg})[0]
	if !bytes.Equal(got, want) {
		t.Error("fallback plan differs from local")
	}
	body := scrapeMetrics(t, cl)
	if v := metricValue(t, body, "mpressd_fleet_forward_errors_total"); v < 1 {
		t.Errorf("forward_errors = %v, want >= 1", v)
	}

	cl.HTTPClient.CloseIdleConnections()
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("serve exit: %v", err)
	}
	waitGoroutines(t, base)
}

// TestFleetPlanKeyReuse: two jobs with different fingerprints but one
// plan key (the minibatch count is outside it) route to one owner,
// whose plan cache answers the second job — one planner search, and
// the rebased plan is byte-identical to a local run.
func TestFleetPlanKeyReuse(t *testing.T) {
	base := runtime.NumGoroutine()
	tf := startFleet(t, 3)

	cfgA := smokeConfigs(t)[0]
	cfgB := cfgA
	cfgB.Minibatches = cfgA.Minibatches + 7
	jA, err := runner.NewJob(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	jB, err := runner.NewJob(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if jA.RouteKey() != jB.RouteKey() || jA.Fingerprint() == jB.Fingerprint() {
		t.Fatalf("test premise broken: route keys %q/%q fps equal=%v",
			jA.RouteKey(), jB.RouteKey(), jA.Fingerprint() == jB.Fingerprint())
	}

	fc, err := client.NewFleet(tf.urls)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Plan(context.Background(), cfgA, ""); err != nil {
		t.Fatal(err)
	}
	respB, err := fc.Plan(context.Background(), cfgB, "")
	if err != nil {
		t.Fatal(err)
	}
	want := localCanonicalPlans(t, []runner.Config{cfgB})[0]
	got, err := respB.CanonicalPlanFile()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("plan rebased from the owner's cache differs from local")
	}
	if computes := fleetPlanComputes(tf); computes != 1 {
		t.Errorf("two same-plan-key jobs ran %d planner searches, want 1", computes)
	}

	fc.CloseIdleConnections()
	tf.shutdown(t)
	waitGoroutines(t, base)
}

// TestFleetPlanKeyBurst: eight fingerprints that share one plan key
// (minibatch counts 2..9), released together through the ring-aware
// client, plan once fleet-wide — they all route to one owner, whose
// plan cache collapses the concurrent computations — and every plan is
// byte-identical to a local runner.Train.
func TestFleetPlanKeyBurst(t *testing.T) {
	base := runtime.NumGoroutine()
	tf := startFleet(t, 3)

	var cfgs []runner.Config
	for mb := 2; mb <= 9; mb++ {
		cfg := smokeConfigs(t)[0]
		cfg.Minibatches = mb
		cfgs = append(cfgs, cfg)
	}
	want := localCanonicalPlans(t, cfgs)

	fc, err := client.NewFleet(tf.urls)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg runner.Config) {
			defer wg.Done()
			<-start
			resp, err := fc.Plan(context.Background(), cfg, "")
			if err != nil {
				errs[i] = err
				return
			}
			got, err := resp.CanonicalPlanFile()
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, want[i]) {
				errs[i] = fmt.Errorf("plan differs from local (%d vs %d bytes)", len(got), len(want[i]))
			}
		}(i, cfg)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("minibatches %d: %v", cfgs[i].Minibatches, err)
		}
	}
	if computes := fleetPlanComputes(tf); computes != 1 {
		t.Errorf("%d concurrent same-plan-key jobs ran %d planner searches, want 1", len(cfgs), computes)
	}

	fc.CloseIdleConnections()
	tf.shutdown(t)
	waitGoroutines(t, base)
}

// TestFleetForwardCallerGone: a caller that cancels while its request
// is forwarded is not an unreachable owner. The non-owner counts no
// forward error and runs no job of its own for the dead request.
func TestFleetForwardCallerGone(t *testing.T) {
	base := runtime.NumGoroutine()
	tf := startFleet(t, 3)

	cfg := smokeConfigs(t)[0]
	j, err := runner.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	owner, nonOwner := -1, -1
	for i, s := range tf.servers {
		if s.fleet.IsSelf(s.fleet.Owner(j.RouteKey())) {
			owner = i
		} else if nonOwner < 0 {
			nonOwner = i
		}
	}
	// The owner stalls until its request is cancelled; every other
	// peer counts the jobs it runs.
	started := make(chan struct{}, 1)
	var localRuns atomic.Int64
	for i, s := range tf.servers {
		if i == owner {
			s.runJob = func(ctx context.Context, j *runner.Job) runner.JobResult {
				started <- struct{}{}
				<-ctx.Done()
				return runner.JobResult{Job: j, Err: ctx.Err()}
			}
			continue
		}
		s.runJob = func(ctx context.Context, j *runner.Job) runner.JobResult {
			localRuns.Add(1)
			return runner.JobResult{Job: j, Err: errors.New("non-owner ran a job")}
		}
	}

	cl := tf.peerClient(nonOwner)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.Plan(ctx, cfg, "")
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled request succeeded")
	}
	// Wait for the non-owner's handler to finish — it answers 503 to
	// the departed caller — before reading its counters.
	s := tf.servers[nonOwner]
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.met.mu.Lock()
		n := s.met.requests["plan"]["503"]
		s.met.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("non-owner never finished the cancelled request")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := s.forwardsSent.Load(); n != 1 {
		t.Errorf("forwards_sent = %d, want 1", n)
	}
	if n := s.forwardErrors.Load(); n != 0 {
		t.Errorf("forward_errors = %d, want 0 for a caller that went away", n)
	}
	if n := localRuns.Load(); n != 0 {
		t.Errorf("non-owners ran %d jobs for a cancelled request, want 0", n)
	}

	cl.HTTPClient.CloseIdleConnections()
	tf.shutdown(t)
	waitGoroutines(t, base)
}

// fleetPlanComputes sums the planner searches every peer ran.
func fleetPlanComputes(tf *testFleet) int64 {
	var n int64
	for _, s := range tf.servers {
		n += s.runner.Stats().PlanComputes
	}
	return n
}
