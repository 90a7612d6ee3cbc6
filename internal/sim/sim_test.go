package sim

import (
	"errors"
	"testing"

	"mpress/internal/units"
)

// recordArgs sets s's Handle to append each event's Arg to *got.
func recordArgs(s *Sim, got *[]int32) {
	s.Handle = func(ev Event) { *got = append(*got, ev.Arg) }
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int32
	recordArgs(s, &got)
	s.Post(30, Event{Arg: 3})
	s.Post(10, Event{Arg: 1})
	s.Post(20, Event{Arg: 2})
	end, _ := s.Run()
	if end != 30 {
		t.Errorf("end = %v, want 30", end)
	}
	want := []int32{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

func TestTieBreakBySubmission(t *testing.T) {
	s := New()
	var got []int32
	recordArgs(s, &got)
	s.Post(5, Event{Arg: 1})
	s.Post(5, Event{Arg: 2})
	s.Post(5, Event{Arg: 3})
	s.Run()
	for i, want := range []int32{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("tie order %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var endTimes []Time
	s.Handle = func(ev Event) {
		if ev.Kind == 0 {
			s.Post(s.Now()+5, Event{Kind: 1})
			return
		}
		endTimes = append(endTimes, s.Now())
	}
	s.Post(10, Event{})
	s.Run()
	if len(endTimes) != 1 || endTimes[0] != 15 {
		t.Errorf("nested event at %v, want [15]", endTimes)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.Handle = func(Event) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.Post(5, Event{})
	}
	s.Post(10, Event{})
	s.Run()
}

func TestStop(t *testing.T) {
	s := New()
	ran := 0
	s.Handle = func(ev Event) {
		ran++
		if ev.Arg == 1 {
			s.Stop()
		}
	}
	s.Post(1, Event{Arg: 1})
	s.Post(2, Event{Arg: 2})
	s.Run()
	if ran != 1 {
		t.Errorf("ran %d events, want 1", ran)
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
}

func TestRunawayGuard(t *testing.T) {
	s := New()
	s.maxEvents = 100
	s.Handle = func(ev Event) { s.Post(s.Now()+1, ev) }
	s.Post(0, Event{})
	if _, err := s.Run(); !errors.Is(err, ErrRunaway) {
		t.Errorf("Run past maxEvents = %v, want ErrRunaway", err)
	}
	if s.Executed() != 101 || s.Pending() != 0 {
		t.Errorf("executed %d, pending %d; want the 101st event popped unhandled", s.Executed(), s.Pending())
	}
}

func TestQueueSerializes(t *testing.T) {
	s := New()
	q := NewQueue(s, "compute")
	type span struct{ start, end Time }
	var spans []span
	// Kind 0 books Arg's batch of tasks; each task's completion event
	// (kind 1, carrying its start) records its span, so spans lists
	// completions in the order the kernel ran them.
	book := func(dur Time) {
		start, end := q.Book(dur)
		s.Post(end, Event{Kind: 1, Start: start})
	}
	s.Handle = func(ev Event) {
		switch {
		case ev.Kind == 1:
			spans = append(spans, span{ev.Start, s.Now()})
		case ev.Arg == 0:
			book(100)
			book(50)
		default:
			book(10)
		}
	}
	s.Post(0, Event{Arg: 0})
	s.Post(120, Event{Arg: 1})
	s.Run()
	want := []span{{0, 100}, {100, 150}, {150, 160}}
	if len(spans) != len(want) {
		t.Fatalf("spans = %v", spans)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Errorf("span[%d] = %v, want %v", i, spans[i], want[i])
		}
	}
	if q.BusyTime() != 160 {
		t.Errorf("busy = %v, want 160", q.BusyTime())
	}
}

func TestQueueIdleGap(t *testing.T) {
	s := New()
	q := NewQueue(s, "q")
	var starts [2]Time
	s.Handle = func(ev Event) { starts[ev.Arg], _ = q.Book(10) }
	s.Post(0, Event{Arg: 0})
	s.Post(50, Event{Arg: 1})
	s.Run()
	if starts[0] != 0 || starts[1] != 50 {
		t.Errorf("starts = %v, %v; want 0, 50", starts[0], starts[1])
	}
}

func TestQueueNegativeDurationPanics(t *testing.T) {
	s := New()
	q := NewQueue(s, "q")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	q.Book(-1)
}

func TestLaneSetSingle(t *testing.T) {
	s := New()
	l := NewLaneSet(s, "pcie", 1)
	bw := units.GBps(10) // 10 bytes per ns
	start, end := l.Reserve(units.Bytes(1000), bw, 5)
	if start != 0 {
		t.Errorf("start = %v", start)
	}
	if end != 105 { // 5 latency + 1000B/10Bns
		t.Errorf("end = %v, want 105", end)
	}
	// Second reservation queues behind the first.
	start2, end2 := l.Reserve(units.Bytes(1000), bw, 5)
	if start2 != 105 || end2 != 210 {
		t.Errorf("second = %v..%v, want 105..210", start2, end2)
	}
	if l.Moved() != 2000 {
		t.Errorf("moved = %d", l.Moved())
	}
}

func TestLaneSetStripedSpeedup(t *testing.T) {
	s := New()
	bw := units.GBps(25)
	size := 100 * units.MiB
	single := NewLaneSet(s, "one", 1)
	_, endSingle := single.Reserve(size, bw, 0)
	striped := NewLaneSet(s, "four", 4)
	_, endStriped := striped.ReserveStriped(size, 4, bw, 0)
	ratio := float64(endSingle) / float64(endStriped)
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("4-lane striping speedup = %.2f, want ≈4", ratio)
	}
}

func TestLaneSetStripedRemainder(t *testing.T) {
	s := New()
	l := NewLaneSet(s, "l", 3)
	// 10 bytes across 3 lanes: blocks of 4,3,3. All bytes must arrive.
	l.ReserveStriped(10, 3, units.GBps(1), 0)
	if l.Moved() != 10 {
		t.Errorf("moved = %d, want 10", l.Moved())
	}
}

func TestLaneSetPicksEarliestLane(t *testing.T) {
	s := New()
	l := NewLaneSet(s, "l", 2)
	bw := units.GBps(1)   // 1 byte per ns
	l.Reserve(100, bw, 0) // lane 0 busy till 100
	l.Reserve(10, bw, 0)  // lane 1 busy till 10
	start, _ := l.Reserve(10, bw, 0)
	if start != 10 {
		t.Errorf("third transfer starts at %v, want 10 (earliest lane)", start)
	}
}

func TestLaneSetNextFree(t *testing.T) {
	s := New()
	l := NewLaneSet(s, "l", 2)
	if l.NextFree() != 0 {
		t.Errorf("NextFree on idle = %v", l.NextFree())
	}
	l.Reserve(100, units.GBps(1), 0)
	if l.NextFree() != 0 {
		t.Error("one lane still free")
	}
	l.Reserve(50, units.GBps(1), 0)
	if l.NextFree() != 50 {
		t.Errorf("NextFree = %v, want 50", l.NextFree())
	}
}

func TestLaneSetBadWidthPanics(t *testing.T) {
	s := New()
	l := NewLaneSet(s, "l", 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for stripe width > lanes")
		}
	}()
	l.ReserveStriped(10, 3, units.GBps(1), 0)
}

func TestDeterminism(t *testing.T) {
	run := func() Time {
		s := New()
		q := NewQueue(s, "q")
		l := NewLaneSet(s, "l", 4)
		// Kind 0 books a task of Arg-derived length; kind 1, its
		// completion, reserves a striped transfer.
		s.Handle = func(ev Event) {
			if ev.Kind == 0 {
				_, end := q.Book(units.Duration(ev.Arg)*3 + 1)
				s.Post(end, Event{Kind: 1, Arg: ev.Arg})
				return
			}
			l.ReserveStriped(units.Bytes(1000*(int(ev.Arg)+1)), 2, units.GBps(5), 2)
		}
		for i := 0; i < 20; i++ {
			s.Post(Time(i), Event{Arg: int32(i * 7 % 13)})
		}
		end, _ := s.Run()
		return end
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs ended at %v and %v", a, b)
	}
}

// TestLaneSetEarliestTies: earliestLane picks the lowest index among
// equally free lanes, NextFree reports no time before now, and book
// occupies exactly the lane it is given.
func TestLaneSetEarliestTies(t *testing.T) {
	s := New()
	l := NewLaneSet(s, "l", 3)
	l.ReserveUntil(30, 0) // lane 0
	l.ReserveUntil(20, 0) // lane 1
	l.ReserveUntil(20, 0) // lane 2
	if lane, free := l.earliestLane(), l.NextFree(); lane != 1 || free != 20 {
		t.Fatalf("earliest = lane %d at %v, want lane 1 at 20", lane, free)
	}
	l.book(1, 40, 8)
	if lane, free := l.earliestLane(), l.NextFree(); lane != 2 || free != 20 {
		t.Fatalf("after booking lane 1: earliest = lane %d at %v, want lane 2 at 20", lane, free)
	}
	s.Handle = func(Event) {
		if lane, free := l.earliestLane(), l.NextFree(); lane != 2 || free != 25 {
			t.Errorf("at 25: earliest = lane %d at %v, want lane 2 at 25", lane, free)
		}
	}
	s.Post(25, Event{})
	s.Run()
	if l.Moved() != 8 || l.BusyTime() != 30+20+20+20 {
		t.Errorf("moved %v, busy %v", l.Moved(), l.BusyTime())
	}
}
