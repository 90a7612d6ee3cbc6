package serve

import (
	"container/list"
	"encoding/json"
	"sync"

	"mpress/internal/runner"
	"mpress/internal/serve/api"
	"mpress/internal/trace"
)

// result is one completed job's settled outcome: everything a plan
// response and its trace are assembled from. The planner and simulator
// are deterministic, so a result is a pure function of its job
// fingerprint and answers every later request for that fingerprint.
// It is immutable once settled and shared by every record served from
// it.
type result struct {
	report *runner.Report
	// plan is the plan.Save file (nil for systems that do not plan).
	plan json.RawMessage
	// info describes the job; each record fills in its own ID.
	info api.JobInfo
	// timeline is extracted eagerly so the lowered graph and raw exec
	// result can be collected as soon as the job finishes (nil when
	// the job produced none).
	timeline *trace.Timeline
}

// jobRecord is one retained request: its job ID and the result it was
// served from.
type jobRecord struct {
	id  string
	res *result
}

func (r *jobRecord) info() api.JobInfo {
	info := r.res.info
	info.ID = r.id
	return info
}

// jobStore retains the last N served plan requests, evicting
// oldest-first — the same bounded-retention discipline as the plan
// cache, so a long-lived daemon's memory stays flat no matter how many
// jobs it serves. It is indexed by job ID (for the trace endpoint) and
// by fingerprint (the result memo): a fingerprint stays memoized while
// any of its records is retained, and every memo hit adds a record, so
// popular fingerprints stay resident.
type jobStore struct {
	mu    sync.Mutex
	cap   int
	byID  map[string]*list.Element // value: *jobRecord
	byFP  map[string]*list.Element // newest record per fingerprint
	order *list.List               // front = most recent
}

func newJobStore(capacity int) *jobStore {
	return &jobStore{
		cap:   capacity,
		byID:  make(map[string]*list.Element),
		byFP:  make(map[string]*list.Element),
		order: list.New(),
	}
}

// put records a request served from res under id.
func (s *jobStore) put(id string, res *result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cap <= 0 {
		return
	}
	e := s.order.PushFront(&jobRecord{id: id, res: res})
	s.byID[id] = e
	s.byFP[res.info.Fingerprint] = e
	for s.order.Len() > s.cap {
		back := s.order.Back()
		s.order.Remove(back)
		rec := back.Value.(*jobRecord)
		delete(s.byID, rec.id)
		if fp := rec.res.info.Fingerprint; s.byFP[fp] == back {
			delete(s.byFP, fp)
		}
	}
}

func (s *jobStore) get(id string) (*jobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return e.Value.(*jobRecord), true
}

// lookup returns the memoized result for a job fingerprint.
func (s *jobStore) lookup(fp string) (*result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byFP[fp]
	if !ok {
		return nil, false
	}
	return e.Value.(*jobRecord).res, true
}

// list returns the retained jobs, most recent first.
func (s *jobStore) list() []api.JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]api.JobInfo, 0, s.order.Len())
	for e := s.order.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*jobRecord).info())
	}
	return out
}
