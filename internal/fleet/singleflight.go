package fleet

import (
	"context"
	"sync"
)

// Group collapses concurrent identical work: the first caller for a
// key becomes the leader and runs fn, every concurrent caller for the
// same key waits on the leader's result instead of repeating the work.
// Combined with ring placement — every peer routes a job to the same
// owner — this is what makes a popular job run once fleet-wide: all N
// peers forward to the owner, and the owner's Group admits exactly one
// execution.
//
// Entries live only while the leader runs. A caller that arrives after
// the leader finished starts fresh (the runner's plan cache makes that
// cheap); a leader failure is therefore never sticky.
type Group struct {
	mu    sync.Mutex
	calls map[string]*call
}

type call struct {
	done chan struct{}
	val  any
}

// Do runs fn for key, deduplicating against concurrent calls. shared
// reports that this caller waited on another's execution. A waiting
// caller whose ctx expires returns ctx.Err() without disturbing the
// leader.
func (g *Group) Do(ctx context.Context, key string, fn func() any) (val any, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*call)
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, nil
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	c := &call{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val = fn()
	return c.val, false, nil
}
