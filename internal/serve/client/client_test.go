package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mpress/internal/fleet"
	"mpress/internal/hw"
	"mpress/internal/model"
	"mpress/internal/pipeline"
	"mpress/internal/runner"
	"mpress/internal/serve/api"
)

// TestRetryDelayDesynchronizes is the thundering-herd regression test:
// waiters rejected together must not re-arrive together. Eight clients
// seeded differently draw first-attempt delays that actually spread
// across the jitter band instead of re-polling the server's hint in
// lockstep.
func TestRetryDelayDesynchronizes(t *testing.T) {
	const base = time.Second
	cap := 30 * time.Second
	seen := map[time.Duration]bool{}
	min, max := time.Hour, time.Duration(0)
	for seed := uint64(1); seed <= 8; seed++ {
		d := retryDelay(seed, 0, base, cap)
		if d < 800*time.Millisecond || d > 1200*time.Millisecond {
			t.Errorf("seed %d: first delay %v outside the ±20%% band around %v", seed, d, base)
		}
		if seen[d] {
			t.Errorf("seed %d: delay %v collides with another seed", seed, d)
		}
		seen[d] = true
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if spread := max - min; spread < 50*time.Millisecond {
		t.Errorf("8 waiters spread only %v apart — still a herd", spread)
	}
}

// TestRetryDelaySchedule pins the backoff shape: deterministic per
// seed, exponential in the attempt, capped.
func TestRetryDelaySchedule(t *testing.T) {
	const seed = 42
	base := time.Second
	cap := 8 * time.Second
	if a, b := retryDelay(seed, 3, base, cap), retryDelay(seed, 3, base, cap); a != b {
		t.Errorf("same (seed, attempt) drew %v then %v — not deterministic", a, b)
	}
	// Attempt 2 centers on 4s (1s << 2), within the jitter band.
	if d := retryDelay(seed, 2, base, cap); d < 3200*time.Millisecond || d > 4800*time.Millisecond {
		t.Errorf("attempt 2 delay %v outside ±20%% of 4s", d)
	}
	// Far attempts are capped (jitter still applies to the cap).
	if d := retryDelay(seed, 30, base, cap); d > time.Duration(float64(cap)*1.2) {
		t.Errorf("attempt 30 delay %v exceeds jittered cap", d)
	}
	// Degenerate base falls back to a second instead of busy-polling.
	if d := retryDelay(seed, 0, 0, cap); d < 700*time.Millisecond {
		t.Errorf("zero base produced %v", d)
	}
}

// TestDefaultSeedsDistinct: clients constructed without an explicit
// seed — even against the same URL — must not share schedules.
func TestDefaultSeedsDistinct(t *testing.T) {
	a, b := New("http://same:1"), New("http://same:1")
	if a.retrySeed() == b.retrySeed() {
		t.Error("two default clients share a retry seed")
	}
	c := New("http://same:1")
	c.seed = 7
	if c.retrySeed() != 7 {
		t.Error("explicit seed not honored")
	}
}

func fleetTestConfig(t *testing.T) runner.Config {
	t.Helper()
	m, err := model.BertVariants.Lookup("0.35B")
	if err != nil {
		t.Fatal(err)
	}
	return runner.Config{
		Topology:       hw.DGX1(),
		Model:          m,
		Schedule:       pipeline.PipeDream,
		System:         runner.SystemMPress,
		MicrobatchSize: 12,
	}
}

// TestPlanWaitBackoffAndTypedErrors drives PlanWait against a daemon
// stub that saturates twice, then succeeds: the client must surface
// typed saturation internally, back off, and land the third attempt.
// The saturation errors must decode with Code "saturated".
func TestPlanWaitBackoffAndTypedErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(&api.Error{
				Status: 429, Code: api.CodeSaturated, Message: "queue full", RetryAfter: "1s",
			})
			return
		}
		json.NewEncoder(w).Encode(&api.PlanResponse{ID: "job-000001", Fingerprint: "fp"})
	}))
	defer srv.Close()

	cl := New(srv.URL)
	cl.seed = 1
	// One direct Plan call surfaces the typed error.
	_, err := cl.Plan(context.Background(), fleetTestConfig(t), "")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || !apiErr.IsSaturated() || apiErr.Code != api.CodeSaturated {
		t.Fatalf("saturation error = %v (code %q)", err, apiErr.Code)
	}

	calls.Store(0)
	start := time.Now()
	resp, err := cl.PlanWait(context.Background(), fleetTestConfig(t), "")
	if err != nil || resp.ID != "job-000001" {
		t.Fatalf("PlanWait = %+v, %v", resp, err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	// Two backoffs around 1s and 2s (±20%): elapsed in [2.4s, 3.6s].
	if el := time.Since(start); el < 2400*time.Millisecond || el > 4*time.Second {
		t.Errorf("elapsed %v outside the expected backoff window", el)
	}
}

// TestErrorCodeDerivedForLegacyBodies: a plain-text 504 from an old
// daemon or proxy still surfaces as a typed deadline error.
func TestErrorCodeDerivedForLegacyBodies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "upstream timed out", http.StatusGatewayTimeout)
	}))
	defer srv.Close()
	_, err := New(srv.URL).Plan(context.Background(), fleetTestConfig(t), "")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeDeadline {
		t.Fatalf("legacy 504 error = %v", err)
	}
}

// TestFleetRoutingDeterminism: the fleet client and an independently
// built ring agree on the owner of every route key, so client-side
// routing lands exactly where server-side placement expects. Minibatch
// variants of one config share a plan key and so an owner; configs
// with different plan keys spread over the peers.
func TestFleetRoutingDeterminism(t *testing.T) {
	peers := []string{"http://a:1", "http://b:2", "http://c:3"}
	f, err := NewFleet(peers)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := fleet.NewRing([]string{"http://c:3/", "http://a:1", "http://b:2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	owner := func(cfg runner.Config) string {
		t.Helper()
		j, err := runner.NewJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := f.Ring().Owner(j.RouteKey())
		if o != ring.Owner(j.RouteKey()) {
			t.Fatalf("client and independent ring disagree on the owner of %s", j.RouteKey())
		}
		return o
	}

	cfg := fleetTestConfig(t)
	first := owner(cfg)
	for mb := 1; mb <= 32; mb++ {
		cfg.Minibatches = mb
		if o := owner(cfg); o != first {
			t.Fatalf("minibatches %d routed to %s, want the plan key's owner %s", mb, o, first)
		}
	}

	counts := map[string]int{}
	cfg = fleetTestConfig(t)
	for mbs := 1; mbs <= 16; mbs++ {
		cfg.MicrobatchSize = mbs
		counts[owner(cfg)]++
	}
	if len(counts) < 2 {
		t.Errorf("16 plan keys all routed to one peer: %v", counts)
	}
}
