package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"mpress/internal/fleet"
	"mpress/internal/runner"
	"mpress/internal/serve/api"
)

// Fleet is the ring-aware client of an mpressd planning tier: it
// derives the same consistent-hash placement the daemons use and sends
// each plan request straight to the ring owner of its route key
// (runner.Job.RouteKey), saving the server-side forwarding hop. Safe
// for concurrent use.
type Fleet struct {
	ring    *fleet.Ring
	clients map[string]*Client

	mu    sync.Mutex
	stats FleetStats
}

// FleetStats counts the fleet client's traffic.
type FleetStats struct {
	// Requests is the number of Plan calls; Errors how many returned
	// an error.
	Requests int64
	Errors   int64
	// PerPeer counts requests routed to each peer.
	PerPeer map[string]int64
}

// NewFleet builds a ring-aware client over the peer base URLs (the
// same membership list the daemons run with — placement only agrees if
// the lists agree).
func NewFleet(peers []string) (*Fleet, error) {
	ring, err := fleet.NewRing(peers, 0)
	if err != nil {
		return nil, err
	}
	f := &Fleet{ring: ring, clients: make(map[string]*Client, ring.Size())}
	tr := &http.Transport{MaxIdleConnsPerHost: 16}
	for _, p := range ring.Members() {
		cl := New(p)
		cl.HTTPClient = &http.Client{Transport: tr}
		f.clients[p] = cl
	}
	return f, nil
}

// Ring exposes the placement ring.
func (f *Fleet) Ring() *fleet.Ring { return f.ring }

// Peer returns the single-peer client for a member URL (nil if the
// peer is not in the membership).
func (f *Fleet) Peer(url string) *Client { return f.clients[url] }

// CloseIdleConnections drops pooled connections to every peer.
func (f *Fleet) CloseIdleConnections() {
	for _, cl := range f.clients {
		cl.HTTPClient.CloseIdleConnections()
	}
}

// Stats snapshots the fleet client's counters.
func (f *Fleet) Stats() FleetStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.stats
	out.PerPeer = make(map[string]int64, len(f.stats.PerPeer))
	for k, v := range f.stats.PerPeer {
		out.PerPeer[k] = v
	}
	return out
}

// Plan routes one job to its ring owner and returns the planned
// outcome. The config is validated locally first (the same validation
// the daemon runs), both to fail fast and because routing needs the
// job's route key.
func (f *Fleet) Plan(ctx context.Context, cfg runner.Config, timeout string) (*api.PlanResponse, error) {
	j, err := runner.NewJob(cfg)
	if err != nil {
		return nil, err
	}
	return f.route(ctx, j.RouteKey(), cfg, timeout)
}

// PlanWait is Plan with the same jittered, capped backoff loop the
// single-peer client runs on saturation.
func (f *Fleet) PlanWait(ctx context.Context, cfg runner.Config, timeout string) (*api.PlanResponse, error) {
	j, err := runner.NewJob(cfg)
	if err != nil {
		return nil, err
	}
	seed := splitmix64(fleetHashSeed ^ clientSeq.Add(1))
	for attempt := 0; ; attempt++ {
		resp, err := f.route(ctx, j.RouteKey(), cfg, timeout)
		var apiErr *api.Error
		if err == nil || !errors.As(err, &apiErr) || !apiErr.IsSaturated() {
			return resp, err
		}
		wait := retryDelay(seed, attempt, apiErr.RetryAfterDuration(), 30*time.Second)
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("client: gave up waiting for fleet admission: %w (last: %v)", ctx.Err(), err)
		case <-time.After(wait):
		}
	}
}

const fleetHashSeed = 0x6d70726573732d66 // "mpress-f"

// route sends one plan request to the ring owner of key.
func (f *Fleet) route(ctx context.Context, key string, cfg runner.Config, timeout string) (*api.PlanResponse, error) {
	owner := f.ring.Owner(key)
	resp, err := f.clients[owner].Plan(ctx, cfg, timeout)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Requests++
	if f.stats.PerPeer == nil {
		f.stats.PerPeer = make(map[string]int64)
	}
	f.stats.PerPeer[owner]++
	if err != nil {
		f.stats.Errors++
	}
	return resp, err
}
