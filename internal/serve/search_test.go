package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"mpress/internal/pipeline"
	"mpress/internal/runner"
	"mpress/internal/search"
	"mpress/internal/serve/api"
)

// smallSearchSpace keeps daemon search tests cheap but real: two
// systems, two stage counts, one partition strategy.
func smallSearchSpace() *search.Space {
	return &search.Space{
		Systems:     []runner.System{runner.SystemRecompute, runner.SystemPlain},
		StageCounts: []int{0, 4},
		Partitions:  []pipeline.Strategy{pipeline.ComputeBalanced},
	}
}

// POST /v1/search runs a whole-strategy search on the daemon and
// returns the canonical result; a repeat request is served from the
// daemon's transposition table without re-simulating.
func TestServerSearch(t *testing.T) {
	s := New(Options{Runner: runner.Options{Workers: 2}, Logger: testLogger(t)})
	cl, cancel, wait := startDaemon(t, s)
	defer func() { cancel(); _ = wait(); cl.HTTPClient.CloseIdleConnections() }()

	cfg := testConfig(t, runner.SystemMPress)
	cold, err := cl.Search(context.Background(), cfg, smallSearchSpace(), "")
	if err != nil {
		t.Fatal(err)
	}
	r := cold.Result
	if r == nil || r.Winner < 0 {
		t.Fatalf("no winner: %+v", r)
	}
	if r.Expanded == 0 {
		t.Fatalf("cold search expanded nothing: %+v", r)
	}
	if r.WinnerReport == nil || r.WinnerConfig == nil {
		t.Fatal("winner config/report missing from the wire result")
	}

	warm, err := cl.Search(context.Background(), cfg, smallSearchSpace(), "")
	if err != nil {
		t.Fatal(err)
	}
	if warm.Result.Expanded != 0 {
		t.Fatalf("warm search re-simulated %d strategies", warm.Result.Expanded)
	}
	if warm.Result.MemoHits == 0 {
		t.Fatal("warm search hit nothing")
	}
	cw, ww := r.Best(), warm.Result.Best()
	if cw.Key != ww.Key || cw.TimeToFit != ww.TimeToFit {
		t.Fatalf("warm winner differs: %+v vs %+v", cw, ww)
	}
}

// An invalid base config is a 400, not a crash or a 500.
func TestServerSearchBadConfig(t *testing.T) {
	s := New(Options{Runner: runner.Options{Workers: 1}, Logger: testLogger(t)})
	cl, cancel, wait := startDaemon(t, s)
	defer func() { cancel(); _ = wait(); cl.HTTPClient.CloseIdleConnections() }()

	cfg := testConfig(t, runner.System(99)) // unregistered system
	_, err := cl.Search(context.Background(), cfg, smallSearchSpace(), "")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("want 400 api.Error, got %v", err)
	}
	if !strings.Contains(apiErr.Message, "valid systems") {
		t.Fatalf("error does not enumerate valid systems: %v", apiErr)
	}
}

// The plan endpoint shares the same validation: an unregistered
// system integer is a 400 whose message enumerates the valid names
// (the same registry the CLI help derives from), not a 422 or a 500.
func TestServerPlanUnknownSystem(t *testing.T) {
	s := New(Options{Runner: runner.Options{Workers: 1}, Logger: testLogger(t)})
	cl, cancel, wait := startDaemon(t, s)
	defer func() { cancel(); _ = wait(); cl.HTTPClient.CloseIdleConnections() }()

	_, err := cl.Plan(context.Background(), testConfig(t, runner.System(99)), "")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("want 400 api.Error, got %v", err)
	}
	for _, name := range runner.SystemNames() {
		if !strings.Contains(apiErr.Message, name) {
			t.Fatalf("error message missing system %q: %v", name, apiErr)
		}
	}
}

// In a fleet, a search is forwarded to the ring owner of its base
// config's route key: a search on peer B after the same search on peer
// A finds the owner's table warm and simulates nothing, and the two
// canonical results are byte-identical.
func TestFleetSearchTier(t *testing.T) {
	tf := startFleet(t, 2)
	defer tf.shutdown(t)

	cfg := testConfig(t, runner.SystemMPress)
	ra, err := tf.peerClient(0).Search(context.Background(), cfg, smallSearchSpace(), "")
	if err != nil {
		t.Fatal(err)
	}
	if ra.Result.Expanded == 0 {
		t.Fatalf("peer A expanded nothing: %+v", ra.Result)
	}
	rb, err := tf.peerClient(1).Search(context.Background(), cfg, smallSearchSpace(), "")
	if err != nil {
		t.Fatal(err)
	}
	if rb.Result.Expanded != 0 {
		t.Fatalf("peer B re-simulated %d strategies despite the owner's warm table", rb.Result.Expanded)
	}
	if rb.Result.MemoHits == 0 {
		t.Fatal("peer B hit nothing")
	}

	canonicalize := func(r *search.Result) []byte {
		cp := *r
		cp.Wall = 0
		// The memo/expanded split legitimately differs between a cold
		// and a warm-table search; the strategy outcomes must not.
		cp.Expanded, cp.MemoHits = 0, 0
		for i := range cp.Candidates {
			if cp.Candidates[i].Outcome == search.OutcomeMemo {
				cp.Candidates[i].Outcome = search.OutcomeEvaluated
			}
		}
		var buf bytes.Buffer
		search.WriteReport(&buf, &cp)
		js, err := json.MarshalIndent(&cp, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(js)
		return buf.Bytes()
	}
	ba, bb := canonicalize(ra.Result), canonicalize(rb.Result)
	if !bytes.Equal(ba, bb) {
		t.Fatalf("fleet peers disagree on the search result:\n--- A ---\n%s\n--- B ---\n%s", ba, bb)
	}

	// Exactly one of the two searches entered through the non-owner and
	// was forwarded; the owner ran both.
	sent := tf.servers[0].forwardsSent.Load() + tf.servers[1].forwardsSent.Load()
	received := tf.servers[0].forwardsReceived.Load() + tf.servers[1].forwardsReceived.Load()
	if sent != 1 || received != 1 {
		t.Fatalf("forwards sent %d, received %d; want 1 each", sent, received)
	}
}
