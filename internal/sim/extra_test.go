package sim

import (
	"testing"

	"mpress/internal/units"
)

func TestExecutedCounter(t *testing.T) {
	s := New()
	s.Handle = func(Event) {}
	for i := 0; i < 5; i++ {
		s.Post(Time(i), Event{})
	}
	s.Run()
	if s.Executed() != 5 {
		t.Errorf("executed = %d, want 5", s.Executed())
	}
}

func TestRunTwice(t *testing.T) {
	s := New()
	var order []int32
	recordArgs(s, &order)
	s.Post(1, Event{Arg: 1})
	s.Run()
	// New events after a completed run continue from the final time.
	s.Post(5, Event{Arg: 2})
	end, _ := s.Run()
	if end != 5 || len(order) != 2 {
		t.Errorf("end = %v, order = %v", end, order)
	}
}

func TestQueueZeroDuration(t *testing.T) {
	s := New()
	q := NewQueue(s, "q")
	var done bool
	s.Handle = func(ev Event) {
		if ev.Kind == 1 {
			done = true
			return
		}
		start, end := q.Book(0)
		if start != 3 || end != 3 {
			t.Errorf("zero-duration span %v..%v", start, end)
		}
		s.Post(end, Event{Kind: 1})
	}
	s.Post(3, Event{})
	s.Run()
	if !done {
		t.Error("completion event never ran")
	}
	if q.Name() != "q" {
		t.Error("queue name lost")
	}
}

func TestLaneSetReserveUntilPanicsBackwards(t *testing.T) {
	s := New()
	l := NewLaneSet(s, "l", 1)
	l.Reserve(100, units.GBps(1), 0) // busy until 100ns
	defer func() {
		if recover() == nil {
			t.Error("expected panic reserving before the lane frees")
		}
	}()
	l.ReserveUntil(50, 10)
}

func TestLaneSetSingleLanePanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero lanes")
		}
	}()
	NewLaneSet(s, "bad", 0)
}

func TestLaneSetNames(t *testing.T) {
	s := New()
	l := NewLaneSet(s, "nv", 3)
	if l.Name() != "nv" || l.Lanes() != 3 {
		t.Error("lane set metadata wrong")
	}
}
