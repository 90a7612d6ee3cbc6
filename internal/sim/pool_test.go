package sim

import (
	"fmt"
	"math/rand"
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
	s.Handle = func(Event) {
		l.ReserveStriped(units.Bytes(1<<20), 2, units.GBps(50), units.Microsecond)
	}
	for i := 0; i < 32; i++ {
		d := units.Duration(10 + i)
		s.At(units.Duration(i), func() {
			_, end := q.Book(d)
			s.Post(end, Event{Arg: int32(i)})
		})
	}
	return s.Run()
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
	s.MaxEvents = 5
	s.InterruptEvery = 1
	s.Interrupt = func() bool { return false }
	s.Handle = func(Event) {}
	s.At(1, func() { s.Stop() })
	s.At(2, func() { t.Fatal("event after Stop ran") })
	s.Run()
	if s.Pending() == 0 {
		t.Fatal("expected a leftover queued event")
	}
	s.Reset()
	if s.Pending() != 0 {
		t.Fatalf("Reset left %d pending events", s.Pending())
	}
	if s.MaxEvents != 0 || s.Interrupt != nil || s.InterruptEvery != 0 || s.Handle != nil {
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

func TestStatsReportThroughput(t *testing.T) {
	s := New()
	kernelWorkload(s)
	st := s.Stats()
	if st.Events != s.Executed() {
		t.Fatalf("Stats.Events = %d, want %d", st.Events, s.Executed())
	}
	if st.Wall <= 0 {
		t.Fatalf("Stats.Wall = %v, want > 0", st.Wall)
	}
	if st.EventsPerSec <= 0 {
		t.Fatalf("Stats.EventsPerSec = %v, want > 0", st.EventsPerSec)
	}
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

// benchHorizon drives a steady-state event churn: `pending` events stay
// queued while `churn` additional events flow through, with inter-event
// gaps drawn from one horizon regime. It reports the kernel's own
// events/sec.
func benchHorizon(b *testing.B, pending, churn int, maxGap int64) {
	b.ReportAllocs()
	total := int64(pending + churn)
	for i := 0; i < b.N; i++ {
		s := Get()
		rng := rand.New(rand.NewSource(42))
		remaining := churn
		var fn func()
		fn = func() {
			if remaining > 0 {
				remaining--
				s.After(Time(1+rng.Int63n(maxGap)), fn)
			}
		}
		for j := 0; j < pending; j++ {
			s.At(Time(1+rng.Int63n(maxGap)), fn)
		}
		s.Run()
		if got := s.Executed(); got != total {
			b.Fatalf("executed %d events, want %d", got, total)
		}
		Put(s)
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// horizonRegimes are the gap distributions the horizon grid runs:
// dense is µs-scale gaps (the executor's regime), burst packs hundreds
// of events per nanosecond tick, sparse spreads events over seconds.
var horizonRegimes = []struct {
	name   string
	maxGap int64
}{
	{"dense", 4096},
	{"burst", 256},
	{"sparse", 1 << 32},
}

// BenchmarkSimKernel measures the kernel hot path. The pooled/fresh
// pair pins steady-state allocations (event store and lane timelines
// are recycled, so allocs/op stays at the workload's own closures); the
// horizon grid reports the heap's events/sec on each gap regime at 1k
// and 100k pending events.
func BenchmarkSimKernel(b *testing.B) {
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := Get()
			kernelWorkload(s)
			Put(s)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernelWorkload(New())
		}
	})
	for _, hz := range horizonRegimes {
		for _, pending := range []int{1_000, 100_000} {
			b.Run(fmt.Sprintf("%s-%dk", hz.name, pending/1000), func(b *testing.B) {
				benchHorizon(b, pending, 100_000, hz.maxGap)
			})
		}
	}
}
