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
	// busyTime accumulates occupied time (BusyTime).
	busyTime units.Duration
}

// NewQueue creates a serial queue attached to s.
func NewQueue(s *Sim, name string) *Queue {
	return &Queue{sim: s, name: name}
}

// Name returns the queue's label.
func (q *Queue) Name() string { return q.name }

// Book reserves the queue for a task of the given duration submitted at
// the current simulated time and returns its window: the task starts as
// soon as the queue is free. Book schedules nothing; the caller posts
// the task's completion at end.
func (q *Queue) Book(dur units.Duration) (start, end Time) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: queue %s: negative duration %v", q.name, dur))
	}
	start = max(q.sim.Now(), q.busyUntil)
	end = start + dur
	q.busyUntil = end
	q.busyTime += dur
	return start, end
}

// BusyTime reports the total occupied time so far.
func (q *Queue) BusyTime() units.Duration { return q.busyTime }

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
// (e.g. a NIC's send and mirrored receive lanes) where the caller
// computes the shared completion time.
func (l *LaneSet) ReserveUntil(until Time, size units.Bytes) {
	l.book(l.earliestLane(), until, size)
}

// book occupies lane through until, recording size bytes moved and the
// occupied time from when the lane frees (no earlier than now).
func (l *LaneSet) book(lane int, until Time, size units.Bytes) {
	start := max(l.sim.Now(), l.lanes[lane])
	if until < start {
		panic(fmt.Sprintf("sim: lane set %s: ReserveUntil(%v) before lane free at %v", l.name, until, start))
	}
	l.busy += until - start
	l.lanes[lane] = until
	l.moved += size
}

// NextFree reports when at least one lane is free, no earlier than now.
func (l *LaneSet) NextFree() Time {
	return max(l.sim.Now(), l.lanes[l.earliestLane()])
}

// ReserveJoint books a transfer of size bytes striped over k joint lane
// pairs, one lane of src (the sender's egress) and one of dst (the
// receiver's ingress) per stripe, as on a switched fabric. Stripe i
// carries size/k bytes (stripe 0 also the remainder); it starts when
// the earliest-free lane of each set is free (lowest index on ties)
// and holds both lanes until it ends. ReserveJoint returns the earliest
// start and the latest end. src and dst must be distinct sets with at
// least k lanes each.
//
// The stripes are booked in order, on the lanes one sort of each set
// picks when that provably matches a per-stripe scan (see jointOrder),
// and by that scan otherwise.
func ReserveJoint(src, dst *LaneSet, size units.Bytes, k int, bw units.Bandwidth, lat units.Duration) (start, end Time) {
	if src == dst || k <= 0 || k > len(src.lanes) || k > len(dst.lanes) {
		panic(fmt.Sprintf("sim: joint stripe width %d over lane sets %s (%d lanes) and %s (%d lanes)",
			k, src.name, len(src.lanes), dst.name, len(dst.lanes)))
	}
	var bufS, bufD [maxSortedLanes]int8
	srcOrder, dstOrder := jointOrder(src, dst, size, k, bw, lat, &bufS, &bufD)
	return bookJoint(src, dst, size, k, bw, lat, srcOrder, dstOrder)
}

// bookJoint books ReserveJoint's stripes in order. Stripe i takes lanes
// srcOrder[i] and dstOrder[i] when the orders are given; with nil
// orders — the reference — it scans each set for its earliest-free
// lane.
func bookJoint(src, dst *LaneSet, size units.Bytes, k int, bw units.Bandwidth, lat units.Duration, srcOrder, dstOrder []int8) (start, end Time) {
	now := src.sim.Now()
	per := size / units.Bytes(k)
	start = Time(units.MaxDuration)
	for i := 0; i < k; i++ {
		blk := per
		if i == 0 {
			blk += size - per*units.Bytes(k)
		}
		var ls, ld int
		if srcOrder != nil {
			ls, ld = int(srcOrder[i]), int(dstOrder[i])
		} else {
			ls, ld = src.earliestLane(), dst.earliestLane()
		}
		s := max(now, src.lanes[ls], dst.lanes[ld])
		e := s + lat + bw.TransferTime(blk)
		src.book(ls, e, blk)
		dst.book(ld, e, 0)
		start, end = min(start, s), max(end, e)
	}
	return start, end
}

// maxSortedLanes bounds the lane sets jointOrder sorts on the stack; a
// DGX-2 GPU has 12 NVSwitch lanes.
const maxSortedLanes = 32

// jointOrder returns each set's lanes sorted by (busy-until, index),
// filling bufS and bufD, when booking stripe i on the i-th lane of each
// provably gives what the per-stripe scan gives; nil, nil otherwise.
//
// Stripe 0 takes the first lane of each order and starts at s0. Every
// later stripe's lanes free no earlier, so every stripe ends at or
// after bound = s0 + lat + TransferTime(size/k). If the k-th lane of
// each set frees strictly before bound, a lane booked by an earlier
// stripe is busy later than every lane stripe i could take, so the
// scan for stripe i returns the i-th lane of each order exactly: the
// same lanes, starts, ends, bytes moved and busy time.
func jointOrder(src, dst *LaneSet, size units.Bytes, k int, bw units.Bandwidth, lat units.Duration, bufS, bufD *[maxSortedLanes]int8) (srcOrder, dstOrder []int8) {
	if len(src.lanes) > maxSortedLanes || len(dst.lanes) > maxSortedLanes {
		return nil, nil
	}
	srcOrder, dstOrder = src.sortLanes(bufS[:len(src.lanes)]), dst.sortLanes(bufD[:len(dst.lanes)])
	s0 := max(src.sim.Now(), src.lanes[srcOrder[0]], dst.lanes[dstOrder[0]])
	bound := s0 + lat + bw.TransferTime(size/units.Bytes(k))
	if src.lanes[srcOrder[k-1]] >= bound || dst.lanes[dstOrder[k-1]] >= bound {
		return nil, nil
	}
	return srcOrder, dstOrder
}

// sortLanes fills idx with the lane indices ordered by (busy-until,
// index): an insertion sort, stable, so equal busy-until times keep
// ascending indices.
func (l *LaneSet) sortLanes(idx []int8) []int8 {
	for i := range idx {
		t := l.lanes[i]
		j := i
		for ; j > 0 && l.lanes[idx[j-1]] > t; j-- {
			idx[j] = idx[j-1]
		}
		idx[j] = int8(i)
	}
	return idx
}
