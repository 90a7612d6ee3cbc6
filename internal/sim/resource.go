package sim

import (
	"fmt"

	"mpress/internal/units"
)

// Queue is a serial FIFO resource, modelling a CUDA stream or any other
// engine that executes one task at a time in submission order. Tasks
// submitted earlier (in simulated time) run earlier; ties follow
// submission order.
type Queue struct {
	sim  *Sim
	name string
	// busyUntil is when the queue becomes free.
	busyUntil Time
	// busyTime accumulates occupied time, for utilization reporting.
	busyTime units.Duration
	// tasks counts completed submissions.
	tasks int64
}

// NewQueue creates a serial queue attached to s.
func NewQueue(s *Sim, name string) *Queue {
	return &Queue{sim: s, name: name}
}

// Name returns the queue's label.
func (q *Queue) Name() string { return q.name }

// Submit enqueues a task of the given duration at the current simulated
// time. The task starts as soon as the queue is free and done (if
// non-nil) is invoked at its completion time with the actual start and
// end times.
func (q *Queue) Submit(dur units.Duration, done func(start, end Time)) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: queue %s: negative duration %v", q.name, dur))
	}
	start := q.sim.Now()
	if q.busyUntil > start {
		start = q.busyUntil
	}
	end := start + dur
	q.busyUntil = end
	q.busyTime += dur
	q.tasks++
	if done != nil {
		q.sim.At(end, func() { done(start, end) })
	}
}

// BusyUntil reports when the queue next becomes free.
func (q *Queue) BusyUntil() Time { return q.busyUntil }

// BusyTime reports the total occupied time so far.
func (q *Queue) BusyTime() units.Duration { return q.busyTime }

// Tasks reports how many tasks have been submitted.
func (q *Queue) Tasks() int64 { return q.tasks }

// Utilization reports busyTime divided by the given horizon.
func (q *Queue) Utilization(horizon units.Duration) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(q.busyTime) / float64(horizon)
}

// LaneSet models a pool of identical communication lanes (e.g. the
// NVLink lanes of one GPU, or the single PCIe channel). Each lane is a
// serial timeline; a transfer reserves one lane for its duration, and a
// striped transfer reserves several lanes concurrently.
type LaneSet struct {
	sim   *Sim
	name  string
	lanes []Time // per-lane busy-until
	moved units.Bytes
	busy  units.Duration
}

// NewLaneSet creates a pool of n lanes. The lane timelines come from
// s's arena, so a pooled Sim builds lane sets without allocating; like
// the Sim itself, a LaneSet must not be used after Put(s).
func NewLaneSet(s *Sim, name string, n int) *LaneSet {
	if n <= 0 {
		panic(fmt.Sprintf("sim: lane set %s needs at least one lane", name))
	}
	return &LaneSet{sim: s, name: name, lanes: s.timeline(n)}
}

// Name returns the lane set's label.
func (l *LaneSet) Name() string { return l.name }

// Lanes returns the number of lanes.
func (l *LaneSet) Lanes() int { return len(l.lanes) }

// Moved returns the total bytes transferred through the set.
func (l *LaneSet) Moved() units.Bytes { return l.moved }

// BusyTime returns total lane-occupied time (summed over lanes).
func (l *LaneSet) BusyTime() units.Duration { return l.busy }

// earliestLane returns the index of the lane that frees up first,
// preferring lower indices on ties (deterministic).
func (l *LaneSet) earliestLane() int {
	best := 0
	for i := 1; i < len(l.lanes); i++ {
		if l.lanes[i] < l.lanes[best] {
			best = i
		}
	}
	return best
}

// Reserve books one lane for a transfer of the given size at bandwidth
// bw with setup latency lat, returning the transfer's start and end
// times. The lane chosen is the one that frees first.
func (l *LaneSet) Reserve(size units.Bytes, bw units.Bandwidth, lat units.Duration) (start, end Time) {
	i := l.earliestLane()
	start = l.sim.Now()
	if l.lanes[i] > start {
		start = l.lanes[i]
	}
	dur := lat + bw.TransferTime(size)
	end = start + dur
	l.lanes[i] = end
	l.moved += size
	l.busy += dur
	return start, end
}

// ReserveStriped books k lanes (k ≤ Lanes) splitting size into k equal
// sub-blocks transferred in parallel; it returns the earliest start and
// the time the last sub-block finishes. Each sub-block pays the setup
// latency once, matching per-stream cudaMemcpyPeerAsync calls.
func (l *LaneSet) ReserveStriped(size units.Bytes, k int, bw units.Bandwidth, lat units.Duration) (start, end Time) {
	if k <= 0 || k > len(l.lanes) {
		panic(fmt.Sprintf("sim: lane set %s: stripe width %d of %d lanes", l.name, k, len(l.lanes)))
	}
	start = Time(units.MaxDuration)
	per := size / units.Bytes(k)
	rem := size - per*units.Bytes(k)
	for i := 0; i < k; i++ {
		blk := per
		if i == 0 {
			blk += rem
		}
		s, e := l.Reserve(blk, bw, lat)
		if s < start {
			start = s
		}
		if e > end {
			end = e
		}
	}
	return start, end
}

// ReserveUntil books the earliest-free lane through the absolute time
// until, recording size bytes moved. It supports joint reservations
// (e.g. an egress lane and an ingress lane of a switched fabric) where
// the caller computes the shared completion time.
func (l *LaneSet) ReserveUntil(until Time, size units.Bytes) {
	l.ReserveLaneUntil(l.earliestLane(), until, size)
}

// ReserveLaneUntil is ReserveUntil on a lane the caller already picked
// with Earliest, sparing a second scan of the lanes.
func (l *LaneSet) ReserveLaneUntil(lane int, until Time, size units.Bytes) {
	start := l.sim.Now()
	if l.lanes[lane] > start {
		start = l.lanes[lane]
	}
	if until < start {
		panic(fmt.Sprintf("sim: lane set %s: ReserveUntil(%v) before lane free at %v", l.name, until, start))
	}
	l.busy += until - start
	l.lanes[lane] = until
	l.moved += size
}

// Earliest returns the lane that frees up first (the lowest index on
// ties) and when it is free, no earlier than now.
func (l *LaneSet) Earliest() (lane int, free Time) {
	lane = l.earliestLane()
	free = l.lanes[lane]
	if now := l.sim.Now(); free < now {
		free = now
	}
	return lane, free
}

// NextFree reports when at least one lane is free.
func (l *LaneSet) NextFree() Time {
	_, t := l.Earliest()
	return t
}
