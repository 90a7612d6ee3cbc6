package runner

import (
	"fmt"
	"slices"
	"sync"

	"mpress/internal/pipeline"
)

// lowerings shares frozen lowerings (*pipeline.Built) among a runner's
// jobs, so each distinct BuildConfig is lowered once per batch rather
// than once per job, per plan rebase and per resilience re-plan.
// Lookups are singleflight: the first job to fetch a key builds and
// freezes it, and every other job waits for that build. Entries are
// read-only: a job lays its plan over one as an overlay (plan.Apply).
//
// Retention is bounded by demand, not by a knob: each entry counts the
// leases that refer to it. RunAll reserves every job's keys before
// dispatch, a running job holds each key it fetches, and an entry is
// dropped as soon as its last lease is released, so a finished batch
// retains nothing.
type lowerings struct {
	mu      sync.Mutex
	entries map[string]*lowering

	builds int64 // pipeline.Build calls
	shared int64 // fetches answered by an existing entry
	bases  int64 // planner bases of dropped entries (pipeline.Built.Memoized)
}

type lowering struct {
	refs int
	done chan struct{} // nil until the first fetch builds; closed once b/err settle
	b    *pipeline.Built
	err  error
}

// lease is one job's claim on lowerings entries: the keys it reserved
// or fetched, each holding one reference until release.
type lease struct {
	c    *lowerings
	keys []string
}

func newLowerings() *lowerings {
	return &lowerings{entries: make(map[string]*lowering)}
}

// lowerKey digests the full build configuration: two equal keys lower
// to identical graphs.
func lowerKey(bc pipeline.BuildConfig) string {
	return digest(fmt.Sprintf("%#v", bc))
}

// lowerKeys lists the keys of the lowerings j's stages fetch.
func lowerKeys(j *Job) []string {
	var keys []string
	for _, bc := range lowerConfigs(j.Config) {
		keys = append(keys, lowerKey(bc))
	}
	return keys
}

// lease returns a claim reserving keys up front.
func (c *lowerings) lease(keys []string) *lease {
	l := &lease{c: c}
	c.mu.Lock()
	for _, k := range keys {
		l.hold(k)
	}
	c.mu.Unlock()
	return l
}

// hold returns key's entry, creating it and taking a reference unless
// l already holds one. Called with c.mu held.
func (l *lease) hold(key string) *lowering {
	e := l.c.entries[key]
	if e == nil {
		e = &lowering{}
		l.c.entries[key] = e
	}
	if !slices.Contains(l.keys, key) {
		l.keys = append(l.keys, key)
		e.refs++
	}
	return e
}

// get returns the frozen lowering of bc, building it if no lease has
// yet. The result is shared and read-only.
func (l *lease) get(bc pipeline.BuildConfig) (*pipeline.Built, error) {
	c := l.c
	c.mu.Lock()
	e := l.hold(lowerKey(bc))
	first := e.done == nil
	if first {
		e.done = make(chan struct{})
		c.builds++
	} else {
		c.shared++
	}
	c.mu.Unlock()
	if !first {
		<-e.done
		return e.b, e.err
	}
	e.b, e.err = pipeline.Build(bc)
	if e.err == nil {
		e.err = e.b.Freeze()
	}
	if e.err != nil {
		e.b = nil
	}
	close(e.done)
	return e.b, e.err
}

// release drops l's references, deleting entries no lease needs. An
// entry being built is never deleted here: its builder holds a
// reference until its own release.
func (l *lease) release() {
	c := l.c
	c.mu.Lock()
	for _, k := range l.keys {
		e := c.entries[k]
		if e.refs--; e.refs == 0 {
			c.bases += int64(e.memoized())
			delete(c.entries, k)
		}
	}
	c.mu.Unlock()
	l.keys = nil
}

// memoized counts the planner bases e's lowering holds: none until its
// build has settled.
func (e *lowering) memoized() int {
	select { // a nil done (never fetched) is not ready either
	case <-e.done:
	default:
		return 0
	}
	if e.b == nil {
		return 0
	}
	return e.b.Memoized()
}

func (c *lowerings) stats() (builds, shared, bases int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bases = c.bases
	for _, e := range c.entries {
		bases += int64(e.memoized())
	}
	return c.builds, c.shared, bases, len(c.entries)
}
