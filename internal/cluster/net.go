package cluster

import (
	"fmt"

	"mpress/internal/sim"
	"mpress/internal/units"
)

// Net is the simulated inter-node fabric of one cluster, attached to a
// run's discrete-event clock. It models node 0's NIC ports as lane
// resources (per-port serialization, striping across ports, setup
// latency) and runs bucketed ring all-reduces on them.
//
// Symmetry argument: every node hosts an identical pipeline replica
// driven by the same deterministic schedule, so at every simulated
// instant all nodes inject identical traffic into the ring — node i's
// egress load equals node 0's, and the chunk node 0 receives from node
// N-1 completes exactly when node 0's own send does. Modeling one
// node's ports therefore reproduces the whole ring's timing, the same
// one-rank-by-symmetry device the ZeRO baselines use (internal/zero).
//
// A ring runs as a state machine over typed events: each step's
// completion is posted as an event of the kind the Net's owner
// assigned, and the owner's Sim.Handle passes those events to Handle.
type Net struct {
	sim     *sim.Sim
	c       *Cluster
	buckets int
	kind    uint8

	// egress is node 0's NIC send side; ingress mirrors the receive
	// side's occupancy (bytes are counted once, on egress, as
	// internal/fabric does for switched NVLink).
	egress  *sim.LaneSet
	ingress *sim.LaneSet

	// rings holds every all-reduce put on the wire and wire every bucket
	// of them; a step event's Arg indexes wire.
	rings []ring
	wire  []bucket

	allReduces int64
}

// ring is one all-reduce on the wire: the caller's token and the
// number of its buckets still running.
type ring struct {
	token int32
	left  int
}

// bucket is one bucket's progress through its ring's 2(N-1) steps:
// the step on the wire and the bytes each step moves per node.
type bucket struct {
	ring  int32
	step  int
	chunk units.Bytes
}

// NewNet builds the fabric resources for c on simulation s. Each
// all-reduce splits into buckets pipelined buckets (values below 1
// mean one), and its ring steps are posted as events of the given
// kind. For single-node clusters the NIC lanes are not instantiated —
// there is no ring to run.
func NewNet(s *sim.Sim, c *Cluster, buckets int, kind uint8) *Net {
	n := &Net{sim: s, c: c, buckets: max(buckets, 1), kind: kind}
	if c.Nodes > 1 {
		n.egress = sim.NewLaneSet(s, "nic-egress", c.Net.NICs)
		n.ingress = sim.NewLaneSet(s, "nic-ingress", c.Net.NICs)
	}
	return n
}

// NetStats aggregates inter-node traffic, per node (all nodes are
// symmetric: multiply by Cluster.Nodes for fleet totals).
type NetStats struct {
	// AllReduces counts started collective operations, including
	// those that needed no traffic (one node or an empty payload).
	AllReduces int64
	// EgressBytes is one node's total NIC egress traffic.
	EgressBytes units.Bytes
	// Busy is one node's summed NIC-port-occupied send time.
	Busy units.Duration
}

// Stats snapshots the net's cumulative counters.
func (n *Net) Stats() NetStats {
	st := NetStats{AllReduces: n.allReduces}
	if n.egress != nil {
		st.EgressBytes = n.egress.Moved()
		st.Busy = n.egress.BusyTime()
	}
	return st
}

// AllReduce starts a bucketed ring all-reduce of size bytes across the
// cluster's nodes at the current simulated time; token names it to the
// caller. It reports true when the all-reduce completes at once (one
// node, or nothing to send); otherwise Handle reports token at its
// simulated completion.
//
// The ring follows the classic 2(N-1)-step schedule — N-1 reduce-
// scatter steps then N-1 all-gather steps, each moving size/(B*N)
// bytes per node per bucket — with every chunk striped across the
// node's NICs. Buckets pipeline: bucket b+1's step k queues on the NIC
// lanes behind bucket b's, so an uncontended all-reduce approaches the
// closed-form 2(N-1)/N * size / nodeBW wire time (plus the per-step
// latency). Concurrent all-reduces (different pipeline stages
// finishing their backward passes at different times) contend on the
// same lanes, which is exactly how overlap with backward compute is —
// or is not — achieved.
func (n *Net) AllReduce(token int32, size units.Bytes) bool {
	n.allReduces++
	if n.c.Nodes <= 1 || size <= 0 {
		return true
	}
	b := n.buckets
	if units.Bytes(b) > size {
		b = int(size)
	}
	per := size / units.Bytes(b)
	rem := size - per*units.Bytes(b)
	r := int32(len(n.rings))
	n.rings = append(n.rings, ring{token: token, left: b})
	for i := 0; i < b; i++ {
		bytes := per
		if i == 0 {
			bytes += rem
		}
		chunk := (bytes + units.Bytes(n.c.Nodes) - 1) / units.Bytes(n.c.Nodes)
		n.wire = append(n.wire, bucket{ring: r, chunk: chunk})
		n.send(int32(len(n.wire) - 1))
	}
	return false
}

// Handle runs one step event: bucket ev.Arg's chunk has arrived, so
// its next step starts, or after the last step the bucket retires. It
// returns the all-reduce's token and true when that retired its last
// bucket.
func (n *Net) Handle(ev sim.Event) (int32, bool) {
	b := &n.wire[ev.Arg]
	b.step++
	if b.step < 2*(n.c.Nodes-1) {
		n.send(ev.Arg)
		return 0, false
	}
	r := &n.rings[b.ring]
	r.left--
	return r.token, r.left == 0
}

// send books bucket i's current step and posts its completion. A step
// must wait for both a free NIC lane and the previous step's chunk to
// arrive from the ring predecessor (which, by symmetry, lands when this
// node's own previous send completes).
func (n *Net) send(i int32) {
	end := n.sendChunk(n.wire[i].chunk)
	n.sim.Post(end, sim.Event{Kind: n.kind, Arg: i})
}

// sendChunk reserves the node's NIC lanes for one ring chunk, striping
// it across all ports, and mirrors the occupancy on the ingress side
// (the simultaneous receive from the ring predecessor). It returns the
// completion time of the slowest stripe.
func (n *Net) sendChunk(chunk units.Bytes) sim.Time {
	k := n.egress.Lanes()
	per := chunk / units.Bytes(k)
	rem := chunk - per*units.Bytes(k)
	var end sim.Time
	for i := 0; i < k; i++ {
		blk := per
		if i == 0 {
			blk += rem
		}
		_, e := n.egress.Reserve(blk, n.c.Net.PerNICBW, n.c.Net.Latency)
		// The mirrored receive never outruns the send side: both lane
		// sets see the identical reservation sequence, so the earliest
		// ingress lane frees no later than e.
		n.ingress.ReserveUntil(e, 0)
		if e > end {
			end = e
		}
	}
	return end
}

// MeasureAllReduce runs one isolated bucketed ring all-reduce of size
// bytes on a fresh clock and returns its simulated duration — the
// cluster-level counterpart of fabric.EffectiveBandwidth, used by
// cmd/mpress-topo's probe and the closed-form tests.
func MeasureAllReduce(c *Cluster, size units.Bytes, buckets int) units.Duration {
	s := sim.New()
	n := NewNet(s, c, buckets, 0)
	fired := n.AllReduce(0, size)
	s.Handle = func(ev sim.Event) {
		_, done := n.Handle(ev)
		fired = fired || done
	}
	end, err := s.Run()
	if err != nil || !fired {
		panic(fmt.Sprintf("cluster: all-reduce of %v never completed", size))
	}
	return end
}

// RingAllReduceTime is the closed-form time of a ring all-reduce over
// n symmetric members with per-hop bandwidth hopBW and per-step setup
// latency: 2(n-1) steps, each moving payload/n across one hop. For
// intra-node TP groups pinned on an NVLink island the ring is
// uncontended — every member sends and receives concurrently — so the
// closed form is exact and internal/exec charges it directly;
// inter-node collectives instead go through Net, which adds NIC
// contention on top of the same formula.
func RingAllReduceTime(n int, payload units.Bytes, hopBW units.Bandwidth, latency units.Duration) units.Duration {
	if n <= 1 || payload <= 0 || hopBW <= 0 {
		return 0
	}
	chunk := (payload + units.Bytes(n) - 1) / units.Bytes(n)
	return units.Duration(2*(n-1)) * (latency + hopBW.TransferTime(chunk))
}

// EffectiveAllReduceBandwidth reports the isolated all-reduce's
// algorithm bandwidth, size/time (the figure NCCL benchmarks call
// "algbw"). Infinite for single-node clusters; callers gate on
// Nodes > 1.
func EffectiveAllReduceBandwidth(c *Cluster, size units.Bytes, buckets int) units.Bandwidth {
	d := MeasureAllReduce(c, size, buckets)
	if d <= 0 {
		return 0
	}
	return units.Bandwidth(float64(size) / d.Secondsf())
}
