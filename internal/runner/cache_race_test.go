package runner

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mpress/internal/hw"
	"mpress/internal/plan"
	"mpress/internal/tensor"
)

// stressPlan fabricates a distinct, nonempty plan so the cache's byte
// accounting moves through insert/evict cycles with varying sizes.
func stressPlan(i int) *plan.Plan {
	p := &plan.Plan{
		Mapping: make([]hw.DeviceID, 4+i%4),
		Act:     map[tensor.ID]plan.Mechanism{},
	}
	for t := 0; t < 1+i%7; t++ {
		p.Act[tensor.ID(t)] = plan.MechD2D
	}
	return p
}

// TestPlanCacheConcurrentAccounting hammers the LRU with concurrent
// getOrCompute / peek traffic across more keys than the cap, so
// evictions race lookups and inserts, and pins the accounting
// invariants:
//
//   - the byte count never goes negative (sampled continuously while
//     the stress runs, not just at the end);
//   - hit/miss counters are exact — every getOrCompute increments
//     exactly one of them, so hits+misses equals the lookup count and
//     misses equals computes;
//   - the retained byte count equals the sum of the retained entries'
//     sizes once the dust settles, and the entry count respects cap.
//
// Run under -race (make race does) this also proves the lock
// discipline around the eviction path.
func TestPlanCacheConcurrentAccounting(t *testing.T) {
	const (
		capEntries = 8
		keys       = 64
		workers    = 16
		opsPerW    = 400
	)
	c := newPlanCache(capEntries)

	var lookups, errComputes atomic.Int64
	stop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		// Continuously assert the "never negative" invariant while
		// evictions are racing inserts.
		defer samplerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _, _, _, entries, bytes := c.stats()
			if bytes < 0 {
				t.Errorf("cache bytes went negative: %d", bytes)
				return
			}
			if entries < 0 || entries > capEntries {
				t.Errorf("cache entries %d outside [0,%d]", entries, capEntries)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < opsPerW; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := int(rng % keys)
				key := fmt.Sprintf("key-%03d", k)
				switch {
				case k%5 == 4:
					// A failing computation must not be cached and must
					// not disturb the byte accounting.
					lookups.Add(1)
					_, _, err := c.getOrCompute(key+"-err", func() (*plan.Plan, error) {
						errComputes.Add(1)
						return nil, fmt.Errorf("boom")
					})
					if err == nil {
						t.Error("error compute returned nil error")
					}
				case k%5 == 3:
					c.peek(key)
				default:
					lookups.Add(1)
					pl, _, err := c.getOrCompute(key, func() (*plan.Plan, error) {
						return stressPlan(k), nil
					})
					if err != nil || pl == nil {
						t.Errorf("getOrCompute(%s): pl=%v err=%v", key, pl, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	samplerWG.Wait()

	hits, misses, computes, evictions, entries, bytes := c.stats()
	if got, want := hits+misses, lookups.Load(); got != want {
		t.Errorf("hits(%d)+misses(%d) = %d, want exactly the %d lookups", hits, misses, got, want)
	}
	if misses != computes {
		t.Errorf("misses %d != computes %d (every miss computes exactly once)", misses, computes)
	}
	if entries > capEntries {
		t.Errorf("entries %d > cap %d", entries, capEntries)
	}
	if bytes < 0 {
		t.Errorf("final bytes negative: %d", bytes)
	}
	// Settled state: retained bytes equal the sum over retained entries.
	c.mu.Lock()
	var sum int64
	for e := c.lru.Front(); e != nil; e = e.Next() {
		sum += int64(e.Value.(*cacheEntry).size)
	}
	c.mu.Unlock()
	if int64(bytes) != sum {
		t.Errorf("accounted bytes %d != sum of retained entry sizes %d", bytes, sum)
	}
	// Eviction sanity: far more plans settled than the cap holds, so
	// evictions must have fired; successful computes minus evictions is
	// what remains.
	if evictions == 0 {
		t.Error("stress never evicted; the test lost its point")
	}
	if errComputes.Load() == 0 {
		t.Error("stress never exercised the failing-compute path")
	}
}
