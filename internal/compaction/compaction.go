// Package compaction is MPress's compaction library (paper Fig. 5):
// the cost models of the three memory-saving mechanisms — D2D swap,
// GPU-CPU swap, and recomputation — and the weighted data-striping
// planner that splits a tensor across NVLink peers in proportion to
// per-pair bandwidth (Sec. III-C).
//
// The costs here are the round-trip times the paper's Table III
// reports; the overhead of applying a mechanism to a tensor is the
// part of that cost its live interval cannot hide (Sec. III-D
// footnote 2).
package compaction

import (
	"sort"

	"mpress/internal/fabric"
	"mpress/internal/hw"
	"mpress/internal/units"
)

// RecomputeCost returns the time to rematerialize a dropped activation:
// re-running its forward computation at the GPU's sustained rate.
func RecomputeCost(flops units.FLOPs, rate units.FLOPSRate) units.Duration {
	return rate.ComputeTime(flops)
}

// HostSwapCost returns the round-trip PCIe time of swapping size bytes
// to host memory and back.
func HostSwapCost(topo *hw.Topology, size units.Bytes) units.Duration {
	oneWay := topo.PCIeLatency + topo.PCIeBW.TransferTime(size)
	return 2 * oneWay
}

// D2DSwapCost returns the round-trip time of swapping size bytes split
// as parts across NVLink peers, with every part moving in parallel
// (the slowest part bounds each direction).
func D2DSwapCost(topo *hw.Topology, src hw.DeviceID, parts []fabric.Part) units.Duration {
	var worst units.Duration
	for _, p := range parts {
		if p.Bytes == 0 {
			continue
		}
		bw := topo.PairBandwidth(src, p.Peer)
		var t units.Duration
		if bw <= 0 {
			t = topo.PCIeLatency*2 + topo.PCIeBW.TransferTime(p.Bytes)*2
		} else {
			t = topo.NVLinkLatency + bw.TransferTime(p.Bytes)
		}
		if t > worst {
			worst = t
		}
	}
	return 2 * worst
}

// Overhead is the visible delay of a mechanism applied to a tensor
// whose idle live interval is `live`: the portion of cost the interval
// cannot hide (zero when the transfer fits inside the interval).
func Overhead(cost, live units.Duration) units.Duration {
	if cost <= live {
		return 0
	}
	return cost - live
}

// SpareBudget tracks how much importable memory each GPU still offers
// to D2D swaps. It is consumed as the planner routes stripes.
type SpareBudget map[hw.DeviceID]units.Bytes

// Clone returns a deep copy.
func (b SpareBudget) Clone() SpareBudget {
	c := make(SpareBudget, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// Total sums the remaining budget.
func (b SpareBudget) Total() units.Bytes {
	var t units.Bytes
	for _, v := range b {
		t += v
	}
	return t
}

// PlanStripes splits a tensor of `size` bytes from GPU src across the
// NVLink-reachable peers that still have spare budget, weighting each
// peer's share by the pair bandwidth (the paper's weighted data
// stripping for asymmetric DGX-1 topologies; on symmetric topologies
// every reachable peer weighs the same, yielding the equal split of
// Sec. III-C). Budgets of the chosen peers are debited.
//
// It returns nil if the reachable spare cannot hold the whole tensor —
// partial D2D swaps are not worth their bookkeeping (the planner falls
// back to another mechanism instead).
func PlanStripes(topo *hw.Topology, src hw.DeviceID, size units.Bytes, budget SpareBudget) []fabric.Part {
	if size <= 0 {
		return nil
	}
	type peer struct {
		id    hw.DeviceID
		lanes int
		avail units.Bytes
	}
	var peers []peer
	var reachable units.Bytes
	for _, n := range topo.NVLinkNeighbors(src) {
		if avail := budget[n]; avail > 0 {
			peers = append(peers, peer{id: n, lanes: topo.LanesBetween(src, n), avail: avail})
			reachable += avail
		}
	}
	if reachable < size || len(peers) == 0 {
		return nil
	}
	// Deterministic order: more lanes first, then lower GPU index, so
	// the fastest links carry the most data.
	sort.Slice(peers, func(i, j int) bool {
		if peers[i].lanes != peers[j].lanes {
			return peers[i].lanes > peers[j].lanes
		}
		return peers[i].id < peers[j].id
	})
	// Water-fill by lane weight, respecting per-peer budgets.
	parts := make([]fabric.Part, 0, len(peers))
	remaining := size
	active := append([]peer(nil), peers...)
	shares := make(map[hw.DeviceID]units.Bytes)
	for remaining > 0 && len(active) > 0 {
		totalLanes := 0
		for _, p := range active {
			totalLanes += p.lanes
		}
		var next []peer
		distributed := units.Bytes(0)
		for i, p := range active {
			share := remaining * units.Bytes(p.lanes) / units.Bytes(totalLanes)
			if i == len(active)-1 {
				share = remaining - distributed // absorb rounding
			}
			if share >= p.avail {
				shares[p.id] += p.avail
				distributed += p.avail
			} else {
				shares[p.id] += share
				distributed += share
				p.avail -= share
				next = append(next, p)
			}
		}
		remaining -= distributed
		if distributed == 0 {
			break
		}
		active = next
	}
	if remaining > 0 {
		return nil
	}
	for _, p := range peers {
		if s := shares[p.id]; s > 0 {
			parts = append(parts, fabric.Part{Peer: p.id, Bytes: s})
			budget[p.id] -= s
		}
	}
	return parts
}

// UnplanStripes returns previously debited budget (used when the
// planner rolls back a D2D assignment).
func UnplanStripes(budget SpareBudget, parts []fabric.Part) {
	for _, p := range parts {
		budget[p.Peer] += p.Bytes
	}
}

// SingleStripe routes the whole tensor to one peer — the "no data
// stripping" ablation of Fig. 9.
func SingleStripe(peer hw.DeviceID, size units.Bytes) []fabric.Part {
	return []fabric.Part{{Peer: peer, Bytes: size}}
}
