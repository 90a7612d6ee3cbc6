package sim

import (
	"testing"

	"mpress/internal/units"
)

func TestExecutedCounter(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Executed() != 5 {
		t.Errorf("executed = %d, want 5", s.Executed())
	}
}

func TestRunTwice(t *testing.T) {
	s := New()
	var order []int
	s.At(1, func() { order = append(order, 1) })
	s.Run()
	// New events after a completed run continue from the final time.
	s.At(5, func() { order = append(order, 2) })
	end := s.Run()
	if end != 5 || len(order) != 2 {
		t.Errorf("end = %v, order = %v", end, order)
	}
}

func TestQueueZeroDuration(t *testing.T) {
	s := New()
	q := NewQueue(s, "q")
	var done bool
	s.At(3, func() {
		start, end := q.Book(0)
		if start != 3 || end != 3 {
			t.Errorf("zero-duration span %v..%v", start, end)
		}
		s.At(end, func() { done = true })
	})
	s.Run()
	if !done {
		t.Error("callback never ran")
	}
	if q.Name() != "q" {
		t.Error("queue name lost")
	}
}

func TestQueueUtilizationDegenerate(t *testing.T) {
	s := New()
	q := NewQueue(s, "q")
	if q.Utilization(0) != 0 {
		t.Error("zero horizon must be zero utilization")
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
