package sim

// sched.go is the kernel's event store: a binary min-heap over
// struct-of-arrays event slots, ordered by the strict total order
// (time, key). The heap compares only at/key; an event's payload (a
// closure or a typed Event) sits in its own slice and is touched once
// per pop.
//
// The store is pooled with its Sim: every slice below keeps its
// capacity across Reset, so the planner's emulate-hundreds-of-plans
// loop runs the event loop without per-run heap growth.

// sched is one event store. The zero value is ready to use.
type sched struct {
	// Struct-of-arrays event storage: slot i is (at[i], key[i], fn[i],
	// ev[i]); a slot with a nil fn carries the typed event ev. free
	// lists recycled slots.
	at   []Time
	key  []int64
	fn   []func()
	ev   []Event
	free []int32

	// Binary min-heap of slots, ordered by less.
	heap []int32
}

// less orders slots by (time, key) — the kernel's strict total order.
func (q *sched) less(a, b int32) bool {
	if q.at[a] != q.at[b] {
		return q.at[a] < q.at[b]
	}
	return q.key[a] < q.key[b]
}

// len returns the number of pending events.
func (q *sched) len() int { return len(q.heap) }

// push schedules an event: the closure f, or ev when f is nil.
func (q *sched) push(t Time, k int64, f func(), ev Event) {
	var s int32
	if n := len(q.free); n > 0 {
		s = q.free[n-1]
		q.free = q.free[:n-1]
		q.at[s], q.key[s], q.fn[s], q.ev[s] = t, k, f, ev
	} else {
		q.at = append(q.at, t)
		q.key = append(q.key, k)
		q.fn = append(q.fn, f)
		q.ev = append(q.ev, ev)
		s = int32(len(q.at) - 1)
	}
	q.heapPush(s)
}

// pop removes and returns the earliest event.
func (q *sched) pop() (Time, int64, func(), Event, bool) {
	if len(q.heap) == 0 {
		return 0, 0, nil, Event{}, false
	}
	s := q.heapPop()
	t, k, f, ev := q.at[s], q.key[s], q.fn[s], q.ev[s]
	// Recycle the slot, dropping the closure so it is collectable.
	q.fn[s] = nil
	q.free = append(q.free, s)
	return t, k, f, ev, true
}

// reset empties the store keeping every capacity.
func (q *sched) reset() {
	clear(q.fn)
	q.at, q.key, q.fn, q.ev = q.at[:0], q.key[:0], q.fn[:0], q.ev[:0]
	q.free = q.free[:0]
	q.heap = q.heap[:0]
}

func (q *sched) heapPush(s int32) {
	h := append(q.heap, s)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	q.heap = h
}

func (q *sched) heapPop() int32 {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && q.less(h[l], h[least]) {
			least = l
		}
		if r < n && q.less(h[r], h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	q.heap = h
	return top
}
