package runner

import (
	"container/list"
	"sync"

	"mpress/internal/plan"
	"mpress/internal/units"
)

// defaultPlanCacheEntries is the plan cache's entry cap. It is far
// above what a typical sweep computes (the full paper grid needs a few
// dozen plans), so small sweeps never evict, while a long-lived daemon
// stays bounded.
const defaultPlanCacheEntries = 512

// planCache memoizes computed plans by Job.PlanKey with singleflight
// deduplication: when several workers want the same key at once, one
// computes and the rest block on its result — the plan is computed
// exactly once per key per runner. Plans are stored by pointer and
// shared across jobs; that is safe because plan.Apply and plan.Rebase
// only read the plan.
//
// The cache is LRU-bounded: at most cap settled entries are retained,
// least-recently-used evicted first, with an approximate byte size
// accounted per entry. In-flight computations never count against the
// cap and are never evicted — a waiter always receives the plan it
// blocked on.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	lru     *list.List // settled entries, front = most recent

	hits      int64
	misses    int64
	computes  int64
	evictions int64
	bytes     units.Bytes
}

type cacheEntry struct {
	key  string
	done chan struct{} // closed when pl/err are settled
	pl   *plan.Plan
	err  error
	size units.Bytes
	elem *list.Element // nil while in flight
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = defaultPlanCacheEntries
	}
	return &planCache{
		cap:     capacity,
		entries: make(map[string]*cacheEntry),
		lru:     list.New(),
	}
}

// getOrCompute returns the cached plan for key, computing it via fn if
// absent. hit reports whether the caller reused someone else's work
// (either a settled entry or another worker's in-flight computation).
// Failed computations are not cached: the entry is removed so a later
// caller retries.
func (c *planCache) getOrCompute(key string, fn func() (*plan.Plan, error)) (pl *plan.Plan, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.done
		return e.pl, true, e.err
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.computes++
	c.mu.Unlock()

	e.pl, e.err = fn()
	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		e.size = planSize(e.pl)
		e.elem = c.lru.PushFront(e)
		c.bytes += e.size
		c.evict()
	}
	c.mu.Unlock()
	close(e.done)
	return e.pl, false, e.err
}

// peek returns the settled plan cached under key without computing or
// blocking: in-flight entries report a miss. A hit refreshes the
// entry's LRU position but is not counted in hits/misses — a peek
// inspects the cache, it is not a job lookup.
func (c *planCache) peek(key string) (*plan.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.elem == nil {
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	return e.pl, true
}

// evict trims the settled-entry LRU down to cap. Called with mu held.
func (c *planCache) evict() {
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

func (c *planCache) stats() (hits, misses, computes, evictions int64, entries int, bytes units.Bytes) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.computes, c.evictions, c.lru.Len(), c.bytes
}

// planSize estimates a plan's resident footprint for cache accounting:
// the per-tensor assignment maps dominate, so each entry is costed at
// its approximate in-memory size. The estimate only has to be stable
// and proportional — it drives eviction accounting, not allocation.
func planSize(p *plan.Plan) units.Bytes {
	if p == nil {
		return 0
	}
	const (
		mapEntry  = 48 // key + value + bucket overhead
		partEntry = 40 // one fabric.Part
	)
	n := int64(len(p.Mapping)) * 8
	n += int64(len(p.Act)) * mapEntry
	n += int64(len(p.HostPersist)) * mapEntry
	n += int64(len(p.SavedByMech)+len(p.StageRange)) * mapEntry
	for _, parts := range p.Parts {
		n += mapEntry + int64(len(parts))*partEntry
	}
	return units.Bytes(n + 128) // struct header
}
