package fleet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fingerprints fabricates n key strings shaped like job fingerprints
// (hex digests), deterministically.
func fingerprints(n int) []string {
	fps := make([]string, n)
	for i := range fps {
		fps[i] = fmt.Sprintf("%032x", uint64(i)*0x9e3779b97f4a7c15+0xabcdef)
	}
	return fps
}

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://127.0.0.1:%d", 7323+i)
	}
	return out
}

// TestRingDeterministicPlacement is the acceptance check: the same
// membership list — in any order, with trailing slashes, with
// duplicates — yields the same owner for every one of 1000+
// fingerprints across independently built rings.
func TestRingDeterministicPlacement(t *testing.T) {
	m := members(5)
	a, err := NewRing(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed order, decorated URLs, one duplicate.
	decorated := []string{m[4] + "/", m[3], " " + m[2], m[1], m[0], m[0]}
	b, err := NewRing(decorated, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range fingerprints(1500) {
		if ao, bo := a.Owner(fp), b.Owner(fp); ao != bo {
			t.Fatalf("owner(%s) = %s vs %s across equivalent rings", fp, ao, bo)
		}
	}
}

// TestRingBoundedMovement pins the consistent-hashing contract:
// removing one peer remaps only the keys that peer owned — every other
// key keeps its owner.
func TestRingBoundedMovement(t *testing.T) {
	m := members(5)
	full, err := NewRing(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	removed := m[2]
	shrunk, err := NewRing(append(append([]string{}, m[:2]...), m[3:]...), 0)
	if err != nil {
		t.Fatal(err)
	}
	fps := fingerprints(2000)
	moved, owned := 0, 0
	for _, fp := range fps {
		before := full.Owner(fp)
		after := shrunk.Owner(fp)
		if before == removed {
			owned++
			if after == removed {
				t.Fatalf("removed peer still owns %s", fp)
			}
			continue
		}
		if before != after {
			moved++
			t.Errorf("key %s moved %s -> %s though its owner stayed in the ring", fp, before, after)
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys moved beyond the removed peer's share", moved)
	}
	if owned == 0 {
		t.Fatal("test is vacuous: the removed peer owned no keys")
	}
}

// TestRingBalance sanity-checks virtual-node spreading: across 5 peers
// and 5000 keys every peer owns a nontrivial share.
func TestRingBalance(t *testing.T) {
	r, err := NewRing(members(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	fps := fingerprints(5000)
	for _, fp := range fps {
		counts[r.Owner(fp)]++
	}
	for _, m := range r.Members() {
		share := float64(counts[m]) / float64(len(fps))
		if share < 0.08 || share > 0.40 {
			t.Errorf("peer %s owns %.1f%% of keys (want a sane share around 20%%)", m, 100*share)
		}
	}
}

func TestRingRejectsEmpty(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty membership should be rejected")
	}
	if _, err := NewRing([]string{"  ", "/"}, 0); err == nil {
		t.Fatal("blank membership should be rejected")
	}
}

func TestFleetSelfAndVersion(t *testing.T) {
	m := members(3)
	f, err := New(m[1]+"/", m)
	if err != nil {
		t.Fatal(err)
	}
	if f.Self() != m[1] {
		t.Errorf("self = %q", f.Self())
	}
	if !f.IsSelf(m[1]) || f.IsSelf(m[0]) {
		t.Error("IsSelf misidentifies peers")
	}
	if f.Size() != 3 {
		t.Errorf("size = %d", f.Size())
	}
	if _, err := New("http://elsewhere:1", m); err == nil {
		t.Error("self outside the membership should be rejected")
	}
}

// TestGroupSingleflight runs 32 concurrent calls for one key through a
// slow fn: exactly one executes, 31 share, and all see the same value.
func TestGroupSingleflight(t *testing.T) {
	var g Group
	var executions atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func() any {
		executions.Add(1)
		close(started)
		<-release
		return "result"
	}

	const n = 32
	var wg sync.WaitGroup
	vals := make([]any, n)
	shares := make([]bool, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], shares[0], _ = g.Do(context.Background(), "k", fn)
	}()
	<-started // leader is inside fn; everyone else must share
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], shares[i], _ = g.Do(context.Background(), "k", fn)
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let followers reach the wait
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	sharedCount := 0
	for i := range vals {
		if vals[i] != "result" {
			t.Fatalf("caller %d got %v", i, vals[i])
		}
		if shares[i] {
			sharedCount++
		}
	}
	if sharedCount != n-1 {
		t.Errorf("shared = %d, want %d", sharedCount, n-1)
	}

	// The entry is gone after completion: a late caller leads again.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, shared, _ := g.Do(context.Background(), "k", func() any { return "again" }); shared {
			t.Error("post-completion caller should not share")
		}
	}()
	<-done
	if executions.Load() != 1 {
		t.Error("second fn should have been a fresh closure")
	}
}

// TestGroupWaiterTimeout: a follower whose context expires unblocks
// with the context error while the leader keeps running.
func TestGroupWaiterTimeout(t *testing.T) {
	var g Group
	started := make(chan struct{})
	release := make(chan struct{})
	go g.Do(context.Background(), "k", func() any { close(started); <-release; return 1 })
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, shared, err := g.Do(ctx, "k", func() any { return 2 })
	if !shared || err == nil {
		t.Fatalf("shared=%v err=%v, want timed-out follower", shared, err)
	}
	close(release)
}
