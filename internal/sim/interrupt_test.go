package sim

import "testing"

// chain posts n self-perpetuating events so Run has work to poll the
// interrupt hook against: each event's Arg counts the events left, and
// it posts the next one a tick later.
func chain(s *Sim, n int) {
	s.Handle = func(ev Event) {
		if ev.Arg > 1 {
			s.Post(s.Now()+1, Event{Arg: ev.Arg - 1})
		}
	}
	s.Post(s.Now()+1, Event{Arg: int32(n)})
}

func TestInterruptStopsRun(t *testing.T) {
	s := New()
	s.InterruptEvery = 10
	polls := 0
	s.Interrupt = func() bool {
		polls++
		return polls >= 3
	}
	chain(s, 1000)
	s.Run()
	if !s.Interrupted {
		t.Fatal("run drained instead of honoring the interrupt")
	}
	if s.Executed() >= 1000 {
		t.Errorf("all %d events ran despite the interrupt", s.Executed())
	}
	// The hook is polled on the stride, not per event.
	if want := int(s.Executed() / 10); polls != want {
		t.Errorf("polled %d times over %d events (stride 10), want %d", polls, s.Executed(), want)
	}
}

func TestInterruptedResetsBetweenRuns(t *testing.T) {
	s := New()
	s.InterruptEvery = 1
	s.Interrupt = func() bool { return true }
	chain(s, 10)
	s.Run()
	if !s.Interrupted {
		t.Fatal("first run should be interrupted")
	}
	s.Interrupt = nil
	chain(s, 10)
	s.Run()
	if s.Interrupted {
		t.Error("Interrupted flag not reset by the second Run")
	}
	if s.Pending() != 0 {
		t.Errorf("%d events left after an uninterrupted run", s.Pending())
	}
}

func TestNoInterruptHookDrains(t *testing.T) {
	s := New()
	chain(s, 100)
	s.Run()
	if s.Interrupted || s.Pending() != 0 {
		t.Errorf("interrupted=%v pending=%d after a plain run", s.Interrupted, s.Pending())
	}
}
