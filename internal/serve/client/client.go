// Package client is the Go client of the mpressd planning service. It
// speaks the internal/serve/api wire schema, so a CLI or library user
// can offload planning to a shared daemon (and its warm plan cache)
// with the same types it would pass to runner.Train.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"mpress/internal/runner"
	"mpress/internal/search"
	"mpress/internal/serve/api"
)

// Client talks to one mpressd instance.
type Client struct {
	// BaseURL locates the daemon, e.g. "http://127.0.0.1:7323".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Note the daemon
	// bounds jobs server-side; set a Timeout here only above the
	// longest job you expect, or rely on the request context.
	HTTPClient *http.Client
	// seed seeds PlanWait's deterministic backoff jitter. Zero derives
	// a per-client seed (distinct across Client instances in a
	// process), so a herd of clients de-synchronizes by construction.
	// Only tests set it, for reproducible schedules.
	seed uint64
}

// clientSeq makes default retry seeds distinct per Client instance.
var clientSeq atomic.Uint64

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// retrySeed resolves the jitter seed: explicit, else unique-ish per
// client instance (URL hash mixed with an instance counter).
func (c *Client) retrySeed() uint64 {
	if c.seed != 0 {
		return c.seed
	}
	h := fnv.New64a()
	h.Write([]byte(c.BaseURL))
	return splitmix64(h.Sum64() ^ (clientSeq.Add(1) << 32))
}

// retryBackoffCap caps PlanWait's exponential backoff between
// resubmissions.
const retryBackoffCap = 30 * time.Second

// splitmix64 is the jitter PRNG step — tiny, seedable, and identical
// everywhere, so retry schedules are reproducible from the seed alone.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// retryDelay computes the wait before resubmission attempt (0-based):
// the server's Retry-After hint grown exponentially per attempt,
// capped, then scaled by a deterministic ±20% jitter drawn from
// (seed, attempt). Re-polling on exactly the server hint synchronizes
// every rejected waiter into a thundering herd that re-arrives — and
// is re-rejected — together; the jitter spreads the herd, and the
// exponential growth keeps long outages from being polled at the
// original rate forever.
func retryDelay(seed uint64, attempt int, base, cap time.Duration) time.Duration {
	if base <= 0 {
		base = time.Second
	}
	d := base
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	// jitter in [0.8, 1.2): 1 + (u - 0.5) * 0.4
	u := float64(splitmix64(seed^uint64(attempt)*0x2545f4914f6cdd1d)>>11) / float64(1<<53)
	return time.Duration(float64(d) * (1 + (u-0.5)*0.4))
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Plan submits one job and returns its planned outcome. A saturated
// daemon surfaces as an *api.Error with IsSaturated() true and a
// Retry-After hint; timeout is the server-side bound ("" for the
// daemon default).
func (c *Client) Plan(ctx context.Context, cfg runner.Config, timeout string) (*api.PlanResponse, error) {
	var resp api.PlanResponse
	err := c.post(ctx, api.PathPlan, api.PlanRequest{Config: cfg, Timeout: timeout}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// PlanWait is Plan with bounded backoff: on saturation it resubmits
// until ctx expires, waiting the server's Retry-After hint grown
// exponentially (capped at retryBackoffCap) and scaled by a ±20%
// deterministic jitter, so a herd of waiters rejected together
// de-synchronizes instead of re-arriving in lockstep.
func (c *Client) PlanWait(ctx context.Context, cfg runner.Config, timeout string) (*api.PlanResponse, error) {
	seed := c.retrySeed()
	for attempt := 0; ; attempt++ {
		resp, err := c.Plan(ctx, cfg, timeout)
		var apiErr *api.Error
		if err == nil || !errors.As(err, &apiErr) || !apiErr.IsSaturated() {
			return resp, err
		}
		wait := retryDelay(seed, attempt, apiErr.RetryAfterDuration(), retryBackoffCap)
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("client: gave up waiting for admission: %w (last: %v)", ctx.Err(), err)
		case <-time.After(wait):
		}
	}
}

// Sweep submits a batch of jobs; results return in input order.
func (c *Client) Sweep(ctx context.Context, cfgs []runner.Config, timeout string) (*api.SweepResponse, error) {
	var resp api.SweepResponse
	err := c.post(ctx, api.PathSweep, api.SweepRequest{Configs: cfgs, Timeout: timeout}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Search submits one base config for whole-strategy auto-search. A
// nil space searches the daemon's default space for the config; the
// returned result carries every candidate, the winner config and
// report, and the search counters.
func (c *Client) Search(ctx context.Context, cfg runner.Config, space *search.Space, timeout string) (*api.SearchResponse, error) {
	var resp api.SearchResponse
	err := c.post(ctx, api.PathSearch, api.SearchRequest{Config: cfg, Space: space, Timeout: timeout}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Jobs lists the daemon's retained completed jobs, most recent first.
func (c *Client) Jobs(ctx context.Context) (*api.JobsResponse, error) {
	var resp api.JobsResponse
	if err := c.get(ctx, api.PathJobs, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Trace streams the Chrome trace JSON of a retained completed job
// into w.
func (c *Client) Trace(ctx context.Context, jobID string, w io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+api.PathJobs+"/"+jobID+"/trace", nil)
	if err != nil {
		return err
	}
	res, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return decodeError(res)
	}
	_, err = io.Copy(w, res.Body)
	return err
}

// Healthy reports whether the daemon answers /healthz with 200.
func (c *Client) Healthy(ctx context.Context) error {
	var status map[string]string
	return c.get(ctx, api.PathHealthz, &status)
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("client: encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	res, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return decodeError(res)
	}
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// decodeError turns a non-200 response into an *api.Error, falling
// back to the raw body for non-JSON failures (proxies, panics). The
// error is always typed: a missing Code (old daemons, intermediaries)
// is derived from the status, so callers can switch on Code
// unconditionally.
func decodeError(res *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(res.Body, 64<<10))
	var apiErr api.Error
	if err := json.Unmarshal(body, &apiErr); err == nil && apiErr.Message != "" {
		apiErr.Status = res.StatusCode
		if apiErr.RetryAfter == "" {
			apiErr.RetryAfter = res.Header.Get("Retry-After")
		}
	} else {
		apiErr = api.Error{Status: res.StatusCode, Message: strings.TrimSpace(string(body))}
	}
	if apiErr.Code == "" {
		apiErr.Code = api.CodeForStatus(res.StatusCode)
	}
	return &apiErr
}
