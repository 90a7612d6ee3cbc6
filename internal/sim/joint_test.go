package sim

import (
	"testing"

	"mpress/internal/units"
)

// jointWorld is one copy of a switched transfer's lane state: a clock
// and the sender's and receiver's lane sets.
type jointWorld struct {
	s        *Sim
	src, dst *LaneSet
}

func newJointWorld(srcLanes, dstLanes int) *jointWorld {
	s := New()
	return &jointWorld{s: s, src: NewLaneSet(s, "egress", srcLanes), dst: NewLaneSet(s, "ingress", dstLanes)}
}

// diff names the first way w's lane state differs from o's, or "".
func (w *jointWorld) diff(o *jointWorld) string {
	for _, p := range [][2]*LaneSet{{w.src, o.src}, {w.dst, o.dst}} {
		a, b := p[0], p[1]
		for i := range a.lanes {
			if a.lanes[i] != b.lanes[i] {
				return a.name + " lane busy-until differs"
			}
		}
		if a.moved != b.moved {
			return a.name + " Moved differs"
		}
		if a.busy != b.busy {
			return a.name + " BusyTime differs"
		}
	}
	return ""
}

// fuzzBytes reads a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (r *fuzzBytes) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// twoScanJoint is an independent k-round reference built from the
// public primitives: each stripe asks both sets when they next free
// (NextFree) and books their earliest-free lanes through its end
// (ReserveUntil), scanning each set twice per stripe.
func twoScanJoint(src, dst *LaneSet, size units.Bytes, k int, bw units.Bandwidth, lat units.Duration) (start, end Time) {
	per := size / units.Bytes(k)
	start = Time(units.MaxDuration)
	for i := 0; i < k; i++ {
		blk := per
		if i == 0 {
			blk += size - per*units.Bytes(k)
		}
		s := max(src.sim.Now(), src.NextFree(), dst.NextFree())
		e := s + lat + bw.TransferTime(blk)
		src.ReserveUntil(e, blk)
		dst.ReserveUntil(e, 0)
		start, end = min(start, s), max(end, e)
	}
	return start, end
}

// FuzzJointStriped holds ReserveJoint, which books on sorted lane
// orders whenever jointOrder proves them equal to a per-stripe scan, to
// k-round references. The input sets up two lane sets (1–16 lanes
// each, busy-until times with ties, some before now and some past it),
// then drives a sequence of joint striped reservations at advancing
// times: stripe widths below the lane count, sizes not divisible by the
// width, zero bytes, zero latency. Three copies of the state take each
// reservation: ReserveJoint, its reference scan (bookJoint with no
// orders, ReserveJoint's own fallback), and twoScanJoint, which shares
// no code with either. Starts, ends, every lane's busy-until time,
// Moved and BusyTime must match exactly.
func FuzzJointStriped(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzBytes(data)
		la, lb := 1+r.next()%16, 1+r.next()%16
		fast, ref, two := newJointWorld(la, lb), newJointWorld(la, lb), newJointWorld(la, lb)
		worlds := []*jointWorld{fast, ref, two}
		step := Time(1 + r.next()*r.next())
		now := Time(r.next()) * step
		for _, set := range []int{0, 1} {
			n := la
			if set == 1 {
				n = lb
			}
			var prev Time
			for i := 0; i < n; i++ {
				var v Time
				switch b := r.next(); b % 4 {
				case 0: // a tie with the previous lane
					v = prev
				case 1: // free before now
					v = max(0, now-Time(b/4)*step)
				default: // busy past now
					v = now + Time(b/4)*step
				}
				prev = v
				for _, w := range worlds {
					lanes := w.src.lanes
					if set == 1 {
						lanes = w.dst.lanes
					}
					lanes[i] = v
				}
			}
		}
		bws := [...]units.Bandwidth{units.GBps(25), units.GBps(1), units.GBps(300), 7}
		for op := 0; len(r) > 0 && op < 4096; op++ {
			now += Time(r.next()%4) * step
			for _, w := range worlds {
				w.s.now = now
			}
			k := 1 + r.next()%min(la, lb)
			var size units.Bytes
			switch b := r.next(); b % 3 {
			case 0:
				size = 0
			case 1:
				size = units.Bytes(b/3) * units.Bytes(1+r.next())
			default:
				size = units.Bytes(b) << (r.next() % 24)
			}
			bw := bws[r.next()%len(bws)]
			lat := units.Duration(r.next()%4) * 50

			var bufS, bufD [maxSortedLanes]int8
			srcOrder, _ := jointOrder(fast.src, fast.dst, size, k, bw, lat, &bufS, &bufD)
			sorted := srcOrder != nil
			fs, fe := ReserveJoint(fast.src, fast.dst, size, k, bw, lat)
			rs, re := bookJoint(ref.src, ref.dst, size, k, bw, lat, nil, nil)
			if fs != rs || fe != re {
				t.Fatalf("op %d (k=%d, size %v, sorted=%v): ReserveJoint (%v, %v), reference (%v, %v)", op, k, size, sorted, fs, fe, rs, re)
			}
			if d := fast.diff(ref); d != "" {
				t.Fatalf("op %d (k=%d, size %v, sorted=%v): %s", op, k, size, sorted, d)
			}
			ts, te := twoScanJoint(two.src, two.dst, size, k, bw, lat)
			if ts != rs || te != re {
				t.Fatalf("op %d (k=%d): two-scan (%v, %v), reference (%v, %v)", op, k, ts, te, rs, re)
			}
			if d := two.diff(ref); d != "" {
				t.Fatalf("op %d (k=%d): two-scan: %s", op, k, d)
			}
		}
	})
}

// TestReserveJointSortedTakesDGX2Transfers: on idle or evenly loaded
// 12-lane sets, a full-width stripe books on the sorted orders.
func TestReserveJointSortedTakesDGX2Transfers(t *testing.T) {
	w := newJointWorld(12, 12)
	for i := 0; i < 4; i++ {
		var bufS, bufD [maxSortedLanes]int8
		if srcOrder, _ := jointOrder(w.src, w.dst, 64*units.MiB, 12, units.GBps(25), 1000, &bufS, &bufD); srcOrder == nil {
			t.Fatalf("transfer %d fell back to the scan", i)
		}
		ReserveJoint(w.src, w.dst, 64*units.MiB, 12, units.GBps(25), 1000)
	}
}
