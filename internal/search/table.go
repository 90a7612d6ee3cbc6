package search

import "sync"

// Eval is one memoized candidate evaluation — the transposition-table
// entry. It deliberately stores the candidate's *rate*, not a
// time-to-fit: the rate depends only on the lowered job (which the
// fingerprint identifies), while time-to-fit also depends on the
// searcher's workload, so one entry serves searches with different
// workloads.
type Eval struct {
	// OOM marks an infeasible candidate (it ran out of memory).
	OOM bool `json:"oom,omitempty"`
	// EffSamplesPerSec is the fleet-wide effective training rate:
	// goodput × replicas for resilient runs, cluster samples/sec
	// otherwise. Zero when OOM.
	EffSamplesPerSec float64 `json:"eff_samples_per_sec,omitempty"`
}

// MemTable is the in-process transposition table, keyed by strategy
// fingerprint (the lowered job's canonical fingerprint). It is safe for
// concurrent use: the commit loops of concurrent searches may share
// one table.
type MemTable struct {
	mu sync.Mutex
	m  map[string]Eval
}

// NewMemTable returns an empty in-process transposition table.
func NewMemTable() *MemTable { return &MemTable{m: make(map[string]Eval)} }

// Get looks up a memoized evaluation.
func (t *MemTable) Get(fp string) (Eval, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[fp]
	return e, ok
}

// Put memoizes an evaluation.
func (t *MemTable) Put(fp string, e Eval) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[fp] = e
}

// Len reports the entry count.
func (t *MemTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
