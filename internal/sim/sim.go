// Package sim provides a small deterministic discrete-event simulation
// kernel: an event loop ordered by (time, insertion sequence) plus the
// serial resources the training simulator builds on — FIFO queues for
// GPU compute/copy streams and lane timelines for interconnect links.
//
// Determinism is load-bearing: ties are broken by insertion order, so a
// simulation with identical inputs always produces identical timings,
// and tests can assert exact values. The kernel reads no real clock.
//
// The event store (sched.go) is a binary heap over struct-of-arrays
// event slots, ordered by (time, seq). Every event is a small typed
// value (Post) that Run hands to the Sim's one Handle function, so the
// event loop allocates nothing per event. An owner that shares its Sim
// with another component (the executor with internal/cluster's ring)
// assigns that component an event kind and routes those events to it
// from Handle.
// Resources book time and schedule nothing: Queue.Book and the LaneSet
// reservations return a (start, end) window and the caller posts its
// own completion. ReserveJoint books a transfer striped over joint lane
// pairs (a switched fabric's egress and ingress lanes) with one sort
// of each set instead of a scan per stripe.
//
// The kernel is built to be reused: Reset returns a Sim to its pristine
// state without releasing its event store or timeline arena, and the
// package-level Get/Put pool recycles instances so a hot caller (the
// planner emulates hundreds of candidate plans per job) runs the event
// loop without per-run heap growth.
package sim

import (
	"errors"
	"fmt"
	"sync"

	"mpress/internal/units"
)

// Time is the simulated clock, in nanoseconds since simulation start.
type Time = units.Duration

// Event is a typed event: what happens (Kind) to which object (Arg) and
// one carried time (Start), all owned by the Sim's Handle. Posting one
// allocates nothing.
type Event struct {
	Kind  uint8
	Arg   int32
	Start Time
}

// Sim is one simulation instance. The zero value is not usable; call New
// (or Get, which recycles instances through the package pool).
type Sim struct {
	now     Time
	seq     int64
	q       sched
	stopped bool
	// executed counts events handed to Handle: Executed reports it
	// (exec.Result.Events) and Run's runaway guard bounds it. An event
	// popped in the iteration where Interrupt fires is not counted: the
	// poll happens before the pop.
	executed int64
	// arena backs resource timelines (LaneSet lanes); arenaUsed is the
	// high-water mark of the current block. Reset recycles the block, so
	// pooled Sims hand out timelines without allocating.
	arena     []Time
	arenaUsed int
	// maxEvents stops Run with ErrRunaway if exceeded; zero means
	// DefaultMaxEvents, and only tests lower it. The guard turns
	// accidental infinite event loops, and jobs too large to simulate,
	// into typed failures.
	maxEvents int64
	// Interrupt, when set, is polled before the first event and then
	// every interruptEvery processed events; when it returns true, Run
	// stops as if Stop had been called. It exists so a long simulation
	// can honor external cancellation (a context, a signal) without
	// per-event overhead, and so a run cancelled before it starts runs
	// no event.
	Interrupt func() bool
	// interruptEvery is the polling stride; zero means the default of
	// 1024 events, fine enough to stop a planner emulation (a few
	// thousand events) whose round has moved on. Only tests shorten it.
	interruptEvery int64
	// Interrupted reports whether the last Run was halted by the
	// Interrupt hook (as opposed to draining its events or Stop).
	Interrupted bool
	// Handle receives every posted event, at its time. It must be set
	// before Run pops the first one.
	Handle func(Event)
}

// New returns a simulation positioned at time zero.
func New() *Sim {
	return &Sim{}
}

var pool = sync.Pool{New: func() any { return New() }}

// Get returns a pristine Sim from the package pool. Callers that run
// many simulations back to back (the planner's refinement loop) should
// pair it with Put so event stores and timeline arenas are recycled
// instead of reallocated per run.
func Get() *Sim {
	return pool.Get().(*Sim)
}

// Put resets s and returns it to the package pool. The caller must not
// retain s, nor any timeline handed out by it (LaneSets built on s),
// after Put.
func Put(s *Sim) {
	s.Reset()
	pool.Put(s)
}

// Reset returns s to its pristine post-New state while keeping the
// event store's and timeline arena's capacity, so a recycled Sim runs
// without reallocating either. Handle and Interrupt are zeroed to keep
// them collectable: a pooled Sim holds on to no caller state.
func (s *Sim) Reset() {
	s.q.reset()
	s.arenaUsed = 0
	s.now = 0
	s.seq = 0
	s.executed = 0
	s.stopped = false
	s.Interrupted = false
	s.maxEvents = 0
	s.Interrupt = nil
	s.interruptEvery = 0
	s.Handle = nil
}

// timeline hands out a zeroed n-entry Time slice from the Sim's arena,
// full-capacity-clamped so appends cannot overlap neighbours. Blocks
// are recycled by Reset; growth strands the old block (still referenced
// by outstanding timelines) and starts a larger one.
func (s *Sim) timeline(n int) []Time {
	if s.arenaUsed+n > len(s.arena) {
		size := 2 * (s.arenaUsed + n)
		if size < 64 {
			size = 64
		}
		s.arena = make([]Time, size)
		s.arenaUsed = 0
	}
	tl := s.arena[s.arenaUsed : s.arenaUsed+n : s.arenaUsed+n]
	s.arenaUsed += n
	for i := range tl {
		tl[i] = 0
	}
	return tl
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Executed returns the number of events that have run.
func (s *Sim) Executed() int64 { return s.executed }

// Post schedules ev to be handed to Handle at absolute time t. Events
// run in (time, seq) order: ties go to the one posted first. Posting
// in the past (t < Now) panics: it always indicates a modelling bug.
func (s *Sim) Post(t Time, ev Event) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	s.q.push(t, s.seq, ev)
}

// Stop makes Run return after the current event completes. Pending
// events remain queued.
func (s *Sim) Stop() {
	s.stopped = true
}

// DefaultMaxEvents is the runaway guard's default event budget.
const DefaultMaxEvents = 200_000_000

// ErrRunaway is the error Run returns once a simulation executes more
// events than its budget (DefaultMaxEvents).
var ErrRunaway = errors.New("sim: event budget exceeded")

// Run processes events until none remain (or Stop is called) and
// returns the final simulated time. Past the event budget it stops
// with an error wrapping ErrRunaway, leaving the event over budget
// unhandled.
func (s *Sim) Run() (Time, error) {
	max := s.maxEvents
	if max == 0 {
		max = DefaultMaxEvents
	}
	every := s.interruptEvery
	if every <= 0 {
		every = 1024
	}
	s.stopped = false
	s.Interrupted = false
	for s.q.len() > 0 && !s.stopped {
		// Poll before popping: an interrupted Run leaves the unexecuted
		// event queued and uncounted.
		if s.Interrupt != nil && s.executed%every == 0 && s.Interrupt() {
			s.Interrupted = true
			break
		}
		t, _, ev, _ := s.q.pop()
		s.now = t
		s.executed++
		if s.executed > max {
			return s.now, fmt.Errorf("%w: more than %d events at t=%v — runaway event loop?", ErrRunaway, max, s.now)
		}
		s.Handle(ev)
	}
	return s.now, nil
}

// Pending returns the number of queued events, for tests.
func (s *Sim) Pending() int { return s.q.len() }
