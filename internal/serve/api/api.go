// Package api defines the wire types of the mpressd planning service.
// It is shared by the server (internal/serve) and the Go client
// (internal/serve/client) so the two sides agree on one versioned
// schema; the paths themselves are versioned (/v1/...) so the plan API
// stays a first-class boundary as the service evolves.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"mpress/internal/plan"
	"mpress/internal/runner"
	"mpress/internal/search"
)

// Paths of the v1 API.
const (
	PathPlan    = "/v1/plan"
	PathSweep   = "/v1/sweep"
	PathJobs    = "/v1/jobs"
	PathHealthz = "/healthz"
	PathMetrics = "/metrics"
	// PathSearch is the planner-v2 auto-search endpoint: POST a
	// SearchRequest, get back the deterministic whole-strategy search
	// result (winner, plan, counters).
	PathSearch = "/v1/search"
)

// HeaderForwarded marks a request already forwarded once by a fleet
// peer (value: the forwarding peer's base URL). A receiving daemon
// never forwards such a request again — the one-hop guard that makes
// routing loops impossible even when peers disagree about membership.
const HeaderForwarded = "X-MPress-Forwarded"

// Machine-readable error codes carried by Error.Code. Clients switch
// on these instead of parsing messages or bare status codes.
const (
	// CodeBadRequest: the request itself is malformed (bad JSON, bad
	// timeout string, invalid config, infeasible placement).
	CodeBadRequest = "bad_request"
	// CodeSaturated: admission control shed the request (429); back
	// off RetryAfter and resubmit.
	CodeSaturated = "saturated"
	// CodeDeadline: the job exceeded its server-side deadline (504).
	CodeDeadline = "deadline"
	// CodeUnavailable: the daemon is draining or the job was cancelled
	// server-side (503).
	CodeUnavailable = "unavailable"
	// CodeNotFound: the named job is unknown (404).
	CodeNotFound = "not_found"
	// CodeJobFailed: the job ran and failed (422) — e.g. the planner
	// could not produce a plan.
	CodeJobFailed = "job_failed"
	// CodeInternal: a server-side fault (5xx not otherwise classified).
	CodeInternal = "internal"
)

// CodeForStatus maps an HTTP status to its default error code — used
// by the server for errors with no more specific classification and by
// the client for responses (proxies, old daemons) that carry none.
func CodeForStatus(status int) string {
	switch status {
	case 400:
		return CodeBadRequest
	case 404:
		return CodeNotFound
	case 422:
		return CodeJobFailed
	case 429:
		return CodeSaturated
	case 503:
		return CodeUnavailable
	case 504:
		return CodeDeadline
	default:
		return CodeInternal
	}
}

// PlanRequest submits one training job for planning and simulation.
type PlanRequest struct {
	// Config is the job to plan, exactly as the embedded library's
	// runner.Config (the daemon validates and fills defaults).
	Config runner.Config `json:"config"`
	// Timeout bounds the job server-side (e.g. "30s"). Empty uses the
	// daemon's default; the daemon clamps it to its maximum.
	Timeout string `json:"timeout,omitempty"`
}

// PlanResponse is the outcome of one planned job.
type PlanResponse struct {
	// ID names the completed job for follow-up queries
	// (GET /v1/jobs/<id>/trace).
	ID string `json:"id"`
	// Fingerprint is the job's canonical fingerprint (also the plan
	// file's job label).
	Fingerprint string `json:"fingerprint"`
	// Report is the simulation outcome.
	Report *runner.Report `json:"report"`
	// Plan is the memory-compaction plan in the plan.Save file format,
	// embedded verbatim — feed it to plan.Load (or write it to disk
	// for mpress-plan -load). Absent for systems that do not plan.
	Plan json.RawMessage `json:"plan,omitempty"`
	// PlanCacheHit reports the daemon reused a cached plan. A response
	// served from the daemon's result memo (an earlier request with the
	// same fingerprint already ran the job) reuses its plan by
	// definition.
	PlanCacheHit bool `json:"plan_cache_hit"`
	// ElapsedMS is the job's wall-clock on the daemon, with StageMS
	// the per-stage breakdown; both are empty when the response was
	// served from the result memo, because no job ran for it.
	ElapsedMS float64            `json:"elapsed_ms"`
	StageMS   map[string]float64 `json:"stage_ms,omitempty"`
}

// DecodePlan parses the embedded plan file, returning the plan and
// its job label (the job fingerprint).
func (r *PlanResponse) DecodePlan() (*plan.Plan, string, error) {
	if len(r.Plan) == 0 {
		return nil, "", fmt.Errorf("api: response carries no plan")
	}
	return plan.Load(bytes.NewReader(r.Plan))
}

// CanonicalPlanFile re-renders the embedded plan in the exact
// plan.Save byte format. JSON transport re-indents the embedded file
// (whitespace is insignificant to parsers but not to byte-for-byte
// artifact diffing), so persisting a remote plan goes through this.
func (r *PlanResponse) CanonicalPlanFile() ([]byte, error) {
	pl, label, err := r.DecodePlan()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := pl.Save(&buf, label); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SearchRequest submits one base config for whole-strategy
// auto-search (internal/search).
type SearchRequest struct {
	// Config is the base job; empty Space axes inherit its values.
	Config runner.Config `json:"config"`
	// Space is the strategy space to enumerate. Nil searches the
	// default space (search.DefaultSpace of the base config).
	Space *search.Space `json:"space,omitempty"`
	// Timeout bounds the search server-side, as in PlanRequest.
	Timeout string `json:"timeout,omitempty"`
}

// SearchResponse is the outcome of one auto-search.
type SearchResponse struct {
	// Result is the canonical search result: every candidate, the
	// winner config and report, and the expanded/pruned/memo counters.
	Result *search.Result `json:"result"`
	// ElapsedMS is the search's wall-clock on the daemon.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// SweepRequest submits a batch of jobs; results come back in input
// order. The batch occupies one admission slot and runs through the
// daemon's worker pool like a local sweep.
type SweepRequest struct {
	Configs []runner.Config `json:"configs"`
	Timeout string          `json:"timeout,omitempty"`
}

// SweepResult is one job's outcome inside a sweep. Exactly one of
// Error or Response is set.
type SweepResult struct {
	Error    string        `json:"error,omitempty"`
	Response *PlanResponse `json:"response,omitempty"`
}

// SweepResponse carries the batch outcomes in input order.
type SweepResponse struct {
	Results []SweepResult `json:"results"`
}

// JobInfo summarizes a retained completed job.
type JobInfo struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	System      string `json:"system"`
	Model       string `json:"model"`
	// Nodes is the cluster's replica count (omitted for single-server
	// jobs).
	Nodes int `json:"nodes,omitempty"`
	// Failures is the number of injected hardware faults the job
	// recovered from (omitted for fault-free jobs).
	Failures int `json:"failures,omitempty"`
	// HasTrace reports whether GET /v1/jobs/<id>/trace will serve a
	// Chrome trace for this job.
	HasTrace bool `json:"has_trace"`
}

// JobsResponse lists the retained completed jobs, most recent first.
type JobsResponse struct {
	Jobs []JobInfo `json:"jobs"`
}

// Error is the JSON error body every non-2xx response carries.
type Error struct {
	// Status is the HTTP status code, Code the machine-readable
	// classification (one of the Code* constants), Message the
	// human-readable cause.
	Status  int    `json:"status"`
	Code    string `json:"code,omitempty"`
	Message string `json:"message"`
	// RetryAfter, on 429 responses, echoes the Retry-After header.
	RetryAfter string `json:"retry_after,omitempty"`
}

// Error implements the error interface so clients can surface the
// server's cause directly.
func (e *Error) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("mpressd: %d %s: %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("mpressd: %d: %s", e.Status, e.Message)
}

// IsSaturated reports whether the error is an admission rejection —
// the caller should back off RetryAfterDuration and resubmit.
func (e *Error) IsSaturated() bool { return e.Code == CodeSaturated || e.Status == 429 }

// RetryAfterDuration parses the RetryAfter hint, defaulting to one
// second.
func (e *Error) RetryAfterDuration() time.Duration {
	if d, err := time.ParseDuration(e.RetryAfter); err == nil && d > 0 {
		return d
	}
	if secs, err := time.ParseDuration(e.RetryAfter + "s"); err == nil && secs > 0 {
		return secs
	}
	return time.Second
}
