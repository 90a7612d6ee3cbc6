package sim

import (
	"testing"

	"mpress/internal/units"
)

// kernelWorkload drives a small but representative event mix through s:
// a serial queue whose completions are typed events, a striped lane
// set, and chained events. It returns the final simulated time so
// callers can assert determinism.
func kernelWorkload(s *Sim) Time {
	q := NewQueue(s, "compute")
	l := NewLaneSet(s, "nvlink", 4)
	// Kind 0 books task Arg on the queue; kind 1, its completion,
	// reserves a striped transfer.
	s.Handle = func(ev Event) {
		if ev.Kind == 0 {
			_, end := q.Book(units.Duration(10 + ev.Arg))
			s.Post(end, Event{Kind: 1, Arg: ev.Arg})
			return
		}
		l.ReserveStriped(units.Bytes(1<<20), 2, units.GBps(50), units.Microsecond)
	}
	for i := 0; i < 32; i++ {
		s.Post(units.Duration(i), Event{Arg: int32(i)})
	}
	end, _ := s.Run()
	return end
}

func TestResetReplaysIdentically(t *testing.T) {
	s := New()
	first := kernelWorkload(s)
	if s.Executed() == 0 {
		t.Fatal("workload executed no events")
	}
	s.Reset()
	if s.Now() != 0 || s.Executed() != 0 || s.Pending() != 0 {
		t.Fatalf("Reset left state: now=%v executed=%d pending=%d", s.Now(), s.Executed(), s.Pending())
	}
	second := kernelWorkload(s)
	if first != second {
		t.Fatalf("replay after Reset diverged: %v vs %v", first, second)
	}
}

func TestResetClearsPendingAndFlags(t *testing.T) {
	s := New()
	s.maxEvents = 5
	s.interruptEvery = 1
	s.Interrupt = func() bool { return false }
	s.Handle = func(ev Event) {
		if ev.Arg == 2 {
			t.Fatal("event after Stop ran")
		}
		s.Stop()
	}
	s.Post(1, Event{Arg: 1})
	s.Post(2, Event{Arg: 2})
	s.Run()
	if s.Pending() == 0 {
		t.Fatal("expected a leftover queued event")
	}
	s.Reset()
	if s.Pending() != 0 {
		t.Fatalf("Reset left %d pending events", s.Pending())
	}
	if s.maxEvents != 0 || s.Interrupt != nil || s.interruptEvery != 0 || s.Handle != nil {
		t.Fatal("Reset did not clear configuration knobs")
	}
}

func TestPoolRecyclesPristine(t *testing.T) {
	s := Get()
	end := kernelWorkload(s)
	Put(s)
	r := Get()
	if r.Now() != 0 || r.Executed() != 0 || r.Pending() != 0 {
		t.Fatalf("Get returned a dirty Sim: now=%v executed=%d pending=%d", r.Now(), r.Executed(), r.Pending())
	}
	if again := kernelWorkload(r); again != end {
		t.Fatalf("pooled replay diverged: %v vs %v", again, end)
	}
	Put(r)
}

func TestTimelineArenaRecycles(t *testing.T) {
	s := New()
	a := NewLaneSet(s, "a", 4)
	b := NewLaneSet(s, "b", 4)
	a.Reserve(units.Bytes(1<<20), units.GBps(50), 0)
	b.Reserve(units.Bytes(1<<20), units.GBps(50), 0)
	if a.lanes[0] == 0 || b.lanes[0] == 0 {
		t.Fatal("reservations did not mark the timelines")
	}
	s.Reset()
	c := NewLaneSet(s, "c", 4)
	for i, v := range c.lanes {
		if v != 0 {
			t.Fatalf("recycled timeline lane %d = %v, want 0", i, v)
		}
	}
	// The clamped capacity must keep neighbouring timelines disjoint.
	d := NewLaneSet(s, "d", 4)
	c.lanes[3] = 99
	if d.lanes[0] == 99 {
		t.Fatal("adjacent timelines share storage")
	}
}
