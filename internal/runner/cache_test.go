package runner

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mpress/internal/hw"
	"mpress/internal/plan"
)

func computeCounting(n *int) func() (*plan.Plan, error) {
	return func() (*plan.Plan, error) {
		*n++
		return &plan.Plan{Mapping: []hw.DeviceID{0}}, nil
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c := newPlanCache(2)
	var computes int
	for _, k := range []string{"a", "b", "c"} {
		if _, hit, err := c.getOrCompute(k, computeCounting(&computes)); err != nil || hit {
			t.Fatalf("key %s: hit=%v err=%v", k, hit, err)
		}
	}
	// Cap 2: inserting c evicted a (the least recently used).
	hits, misses, _, evictions, entries, size := c.stats()
	if evictions != 1 || entries != 2 {
		t.Fatalf("evictions=%d entries=%d, want 1/2", evictions, entries)
	}
	if hits != 0 || misses != 3 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	if size <= 0 {
		t.Fatalf("size accounting = %v, want > 0", size)
	}
	// "a" was evicted: recomputed. "b" and "c" still hit.
	if _, hit, _ := c.getOrCompute("b", computeCounting(&computes)); !hit {
		t.Error("b should still be cached")
	}
	if _, hit, _ := c.getOrCompute("a", computeCounting(&computes)); hit {
		t.Error("a should have been evicted")
	}
	if computes != 4 {
		t.Errorf("computes = %d, want 4", computes)
	}
}

func TestPlanCacheLRURecency(t *testing.T) {
	c := newPlanCache(2)
	var computes int
	c.getOrCompute("a", computeCounting(&computes))
	c.getOrCompute("b", computeCounting(&computes))
	// Touch a so b becomes least recently used, then insert c.
	if _, hit, _ := c.getOrCompute("a", computeCounting(&computes)); !hit {
		t.Fatal("a should hit")
	}
	c.getOrCompute("c", computeCounting(&computes))
	if _, hit, _ := c.getOrCompute("a", computeCounting(&computes)); !hit {
		t.Error("a was recently used, must survive")
	}
	if _, hit, _ := c.getOrCompute("b", computeCounting(&computes)); hit {
		t.Error("b was LRU, must have been evicted")
	}
}

// There is no unbounded cache: a negative cap, which once meant
// unbounded, gets the default cap like a zero one, and the default cap
// evicts.
func TestPlanCacheUnboundedAndDefault(t *testing.T) {
	for _, capacity := range []int{-1, 0} {
		c := newPlanCache(capacity)
		var computes int
		for i := 0; i < 3*defaultPlanCacheEntries/2; i++ {
			c.getOrCompute(fmt.Sprint(i), computeCounting(&computes))
		}
		if _, _, _, evictions, entries, _ := c.stats(); entries != defaultPlanCacheEntries || evictions != defaultPlanCacheEntries/2 {
			t.Fatalf("cap %d: cache holds %d entries after %d evictions, want %d after %d",
				capacity, entries, evictions, defaultPlanCacheEntries, defaultPlanCacheEntries/2)
		}
	}
}

// Eviction accounting stays consistent under concurrent access with a
// tiny cap (exercised further by -race).
func TestPlanCacheConcurrentEviction(t *testing.T) {
	c := newPlanCache(1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprint((g + i) % 4)
				if _, _, err := c.getOrCompute(k, func() (*plan.Plan, error) {
					return &plan.Plan{}, nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, computes, evictions, entries, size := c.stats()
	if entries > 1 {
		t.Errorf("entries = %d beyond cap 1", entries)
	}
	if hits+misses != 400 || computes != misses {
		t.Errorf("hits=%d misses=%d computes=%d", hits, misses, computes)
	}
	if evictions != computes-int64(entries) {
		t.Errorf("evictions=%d, want computes-entries=%d", evictions, computes-int64(entries))
	}
	if entries == 1 && size <= 0 {
		t.Errorf("size = %v with a retained entry", size)
	}
}

func TestRunnerStatsSurfaceEvictions(t *testing.T) {
	r := New(Options{Workers: 2, planCacheEntries: 1})
	jobs := []*Job{
		mustJob(t, bertCfg(t, "0.64B", SystemRecompute)),
		mustJob(t, bertCfg(t, "0.64B", SystemGPUCPUSwap)),
		mustJob(t, bertCfg(t, "0.64B", SystemRecompute)),
	}
	for _, j := range jobs {
		if res := r.Run(nil, j); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	st := r.Stats()
	if st.PlanCacheEvictions == 0 {
		t.Errorf("expected evictions with cap 1 and 2 distinct plans: %+v", st)
	}
	if st.PlanCacheEntries != 1 {
		t.Errorf("entries = %d, want 1", st.PlanCacheEntries)
	}
	if st.PlanCacheBytes <= 0 {
		t.Errorf("cache bytes = %v", st.PlanCacheBytes)
	}
}

func TestSaveLoadPlanFingerprint(t *testing.T) {
	j := mustJob(t, bertCfg(t, "0.64B", SystemRecompute))
	res := New(Options{Workers: 1}).Run(nil, j)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var buf bytes.Buffer
	if err := j.SavePlan(&buf, res.Report.Plan); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	// The label is the job fingerprint.
	if _, label, err := plan.Load(bytes.NewReader(saved)); err != nil || label != j.Fingerprint() {
		t.Fatalf("label = %q err=%v, want fingerprint %q", label, err, j.Fingerprint())
	}
	// Same job loads cleanly.
	if _, err := j.LoadPlan(bytes.NewReader(saved), false); err != nil {
		t.Fatalf("same-job load: %v", err)
	}
	// A different job is rejected...
	other := mustJob(t, bertCfg(t, "0.64B", SystemGPUCPUSwap))
	if _, err := other.LoadPlan(bytes.NewReader(saved), false); err == nil ||
		!strings.Contains(err.Error(), "computed for job") {
		t.Fatalf("mismatched load error = %v", err)
	}
	// ...unless forced.
	if _, err := other.LoadPlan(bytes.NewReader(saved), true); err != nil {
		t.Fatalf("forced load: %v", err)
	}
}
