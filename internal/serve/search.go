package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"mpress/internal/runner"
	"mpress/internal/search"
	"mpress/internal/serve/api"
)

// This file is the service side of planner v2: POST /v1/search runs a
// whole-strategy auto-search on the daemon's runner, sharing its plan
// cache, against one transposition table that every search on the
// daemon shares. In a fleet the search is forwarded to the ring owner
// of its base config's route key, so a repeated search through any
// peer finds that owner's table warm and simulates nothing.

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxPlanBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	var req api.SearchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	timeout, err := s.requestTimeout(req.Timeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// An invalid base config is not forwarded: search.Run reports it
	// here.
	if j, err := runner.NewJob(req.Config); err == nil &&
		s.forwarded(w, r, api.PathSearch, body, j.RouteKey()) {
		return
	}
	sp := search.DefaultSpace(req.Config)
	if req.Space != nil {
		sp = *req.Space
	}
	// A search occupies one admission slot, like a sweep: it is a batch
	// of candidate evaluations through the shared runner.
	if !s.adm.tryAcquire() {
		s.rejectSaturated(w, "search")
		return
	}
	start := time.Now()
	defer func() { s.adm.release(time.Since(start)) }()

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	res, err := search.Run(ctx, req.Config, sp, search.Options{
		Runner: s.runner,
		Table:  s.searchTab,
	})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		} else if errors.Is(err, context.Canceled) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, &api.SearchResponse{
		Result:    res,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}
