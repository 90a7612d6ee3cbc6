package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// event is one (time, key) pair as the store orders it.
type event struct {
	at  Time
	key int64
}

// less orders events by (time, key).
func (e event) less(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.key < o.key
}

// randomAt draws an event time from one of three horizon regimes:
// dense, sparse, or a same-time burst.
func randomAt(rng *rand.Rand) Time {
	switch rng.Intn(3) {
	case 0: // dense
		return Time(rng.Intn(4096))
	case 1: // sparse
		return Time(rng.Int63n(1 << 50))
	default: // same-time burst
		return Time(rng.Intn(8)) * 1000
	}
}

// TestSchedOrderingEquivalence drives the heap and a sort.SliceStable
// reference ordered by (time, key) through identical push/pop
// interleavings over dense, sparse and same-time-burst horizons; the
// two pop streams must match event for event. This is the (time, seq)
// total order every artifact's byte-identity rests on. The reference
// sorts each batch of pushes and merges it into its sorted pending
// list, keeping the fuzz fast enough for the race detector.
func TestSchedOrderingEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q sched
		var ref, batch []event
		pops := 0
		pop := func() {
			at, key, _, ok := q.pop()
			if len(batch) > 0 {
				sort.SliceStable(batch, func(i, j int) bool { return batch[i].less(batch[j]) })
				merged := make([]event, 0, len(ref)+len(batch))
				for len(ref) > 0 && len(batch) > 0 {
					if batch[0].less(ref[0]) {
						merged, batch = append(merged, batch[0]), batch[1:]
					} else {
						merged, ref = append(merged, ref[0]), ref[1:]
					}
				}
				ref, batch = append(append(merged, ref...), batch...), nil
			}
			if ok != (len(ref) > 0) {
				t.Fatalf("seed %d: heap ok=%v with %d reference events pending", seed, ok, len(ref))
			}
			if !ok {
				return
			}
			if got := (event{at, key}); got != ref[0] {
				t.Fatalf("seed %d: pop %d = %v, want %v", seed, pops, got, ref[0])
			}
			ref = ref[1:]
			pops++
		}
		key := int64(0)
		for op := 0; op < 20000; op++ {
			if rng.Intn(10) < 6 {
				at := randomAt(rng)
				key++
				q.push(at, key, Event{})
				batch = append(batch, event{at, key})
			} else {
				pop()
			}
		}
		for len(ref)+len(batch) > 0 {
			pop()
		}
		if q.len() != 0 {
			t.Fatalf("seed %d: heap holds %d events after the reference drained", seed, q.len())
		}
	}
}

// TestSimSchedulerEquivalence checks the same order at Sim level:
// events scheduled up front and from inside running events (never
// before Now) must run in (time, scheduling order) — the sorted order
// of everything posted.
func TestSimSchedulerEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var scheduled, ran []event
		var n int64
		schedule := func(at Time) {
			n++
			scheduled = append(scheduled, event{at, n})
			s.Post(at, Event{Arg: int32(len(scheduled) - 1)})
		}
		s.Handle = func(ev Event) {
			ran = append(ran, scheduled[ev.Arg])
			if len(scheduled) < 20000 {
				for i := rng.Intn(4); i > 0; i-- {
					// Capped so chained sparse delays cannot overflow.
					schedule(s.Now() + randomAt(rng)%(1<<40))
				}
			}
		}
		for i := 0; i < 64; i++ {
			schedule(randomAt(rng))
		}
		s.Run()
		sort.SliceStable(scheduled, func(i, j int) bool { return scheduled[i].at < scheduled[j].at })
		if len(ran) != len(scheduled) {
			t.Fatalf("seed %d: ran %d of %d scheduled events", seed, len(ran), len(scheduled))
		}
		for i := range ran {
			if ran[i] != scheduled[i] {
				t.Fatalf("seed %d: event %d ran as %v, want %v", seed, i, ran[i], scheduled[i])
			}
		}
	}
}
