package sim

import (
	"math/rand"
	"testing"
)

// TestInterruptCountsOnlyExecuted pins the interrupt-accounting fix:
// Executed() counts exactly the events handed to Handle. The poll
// happens before the pop, so the event that would have run in the
// interrupting iteration stays queued and uncounted.
func TestInterruptCountsOnlyExecuted(t *testing.T) {
	s := New()
	ran := 0
	s.Handle = func(ev Event) {
		ran++
		s.Post(s.Now()+1, ev)
	}
	s.Post(0, Event{})
	s.InterruptEvery = 10
	polls := 0
	s.Interrupt = func() bool {
		polls++
		return polls == 3
	}
	s.Run()
	if !s.Interrupted {
		t.Fatal("Interrupted not set")
	}
	if int64(ran) != s.Executed() {
		t.Fatalf("Executed() = %d but %d events ran", s.Executed(), ran)
	}
	if want := int64(30); s.Executed() != want {
		t.Fatalf("Executed() = %d, want %d (3 polls at stride 10)", s.Executed(), want)
	}
	if s.Pending() == 0 {
		t.Fatal("the unexecuted event was dropped instead of staying queued")
	}
}

// TestTimelineArenaGrowthProperty is the arena-growth property test:
// under randomized allocation sizes that force mid-run arena growth,
// timelines handed out before a growth (living on a stranded block)
// stay valid and disjoint from later ones, and Reset recycles only the
// newest block.
func TestTimelineArenaGrowthProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		type alloc struct {
			tl    []Time
			stamp Time
		}
		var live []alloc
		blocks := 0
		var lastBlock *Time
		for i := 0; i < 40; i++ {
			n := 1 + rng.Intn(50)
			tl := s.timeline(n)
			if len(tl) != n {
				t.Fatalf("seed %d: timeline(%d) returned %d entries", seed, n, len(tl))
			}
			for j := range tl {
				if tl[j] != 0 {
					t.Fatalf("seed %d: timeline not zeroed at %d", seed, j)
				}
			}
			// Stamp every entry with a unique value; stamps on earlier
			// timelines must survive later allocations and growths.
			stamp := Time(seed*1_000_000 + int64(i)*1000 + 1)
			for j := range tl {
				tl[j] = stamp + Time(j)
			}
			live = append(live, alloc{tl: tl, stamp: stamp})
			if head := &s.arena[0]; head != lastBlock {
				lastBlock = head
				blocks++
			}
			for _, a := range live {
				for j, v := range a.tl {
					if v != a.stamp+Time(j) {
						t.Fatalf("seed %d: stranded timeline corrupted: got %v want %v", seed, v, a.stamp+Time(j))
					}
				}
			}
			// Appending to a full-capacity-clamped timeline must not
			// bleed into a neighbour.
			_ = append(tl, 12345)
			for _, a := range live[:len(live)-1] {
				for j, v := range a.tl {
					if v != a.stamp+Time(j) {
						t.Fatalf("seed %d: append overlapped a neighbour timeline", seed)
					}
				}
			}
		}
		if blocks < 2 {
			t.Fatalf("seed %d: workload never grew the arena (%d blocks)", seed, blocks)
		}
		// Reset recycles only the newest block: the next allocation
		// reuses it (same backing array), and stranded blocks keep
		// whatever references still point at them intact.
		head := &s.arena[0]
		strandedCopy := append([]Time(nil), live[0].tl...)
		s.Reset()
		tl := s.timeline(4)
		if &s.arena[0] != head {
			t.Fatalf("seed %d: Reset did not recycle the newest block", seed)
		}
		if &tl[0] != &s.arena[0] {
			t.Fatalf("seed %d: post-Reset timeline not at the block head", seed)
		}
		for j, v := range live[0].tl {
			if v != strandedCopy[j] {
				t.Fatalf("seed %d: Reset touched a stranded block", seed)
			}
		}
	}
}
