package serve

import (
	"bytes"
	"io"
	"net/http"

	"mpress/internal/serve/api"
)

// This file is the server side of the planning fleet: one-hop
// forwarding of plan and search requests to the ring owner of their
// route key (runner.Job.RouteKey). Every job that shares a plan routes
// to one owner, so that owner's plan cache, result memo and search
// table answer all of them; nothing is exchanged between peers.

// forwarded sends a request whose route key another peer owns to that
// owner, streaming the owner's response (success or failure) back
// verbatim, and reports whether the request has been answered. It
// returns false — with nothing written — when this daemon must serve
// the request itself: standalone, owner of the key, already forwarded
// once (the X-MPress-Forwarded guard that makes routing loops
// impossible even under membership disagreement), or the owner is
// unreachable. Wrong-peer service costs cache locality, not
// availability. A caller that went away is not an unreachable owner:
// the request is answered 503 (to nobody), no forward error is
// counted, and no local work starts for it.
func (s *Server) forwarded(w http.ResponseWriter, r *http.Request, path string, body []byte, key string) bool {
	if s.fleet == nil {
		return false
	}
	if r.Header.Get(api.HeaderForwarded) != "" {
		s.forwardsReceived.Add(1)
		return false
	}
	owner := s.fleet.Owner(key)
	if s.fleet.IsSelf(owner) {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+path, bytes.NewReader(body))
	if err != nil {
		s.forwardErrors.Add(1)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.HeaderForwarded, s.fleet.Self())
	s.forwardsSent.Add(1)
	res, err := s.peers.Do(req)
	if err != nil {
		if err := r.Context().Err(); err != nil {
			writeError(w, http.StatusServiceUnavailable, "request cancelled while forwarded to %s: %v", owner, err)
			return true
		}
		s.forwardErrors.Add(1)
		s.logger.Printf("forward to %s failed, serving locally: %v", owner, err)
		return false
	}
	defer res.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := res.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(res.StatusCode)
	if _, err := io.Copy(w, res.Body); err != nil {
		s.logger.Printf("forward to %s: relay response: %v", owner, err)
	}
	return true
}
