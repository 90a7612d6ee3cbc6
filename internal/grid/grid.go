// Package grid factors a cluster's device world into (TP, PP, DP)
// process groups, generalizing the flat `stage → GPU` placement MPress
// was built around.
//
// The axes follow the Megatron-style model-parallel-unit decomposition:
//
//   - TP (tensor parallel): intra-layer sharding. A TP group is pinned
//     inside one NVLink island — its ranks exchange per-operator
//     all-reduces, which only NVLink bandwidth makes affordable.
//   - PP (pipeline parallel): MPress's inter-operator axis. PP groups
//     span TP groups within one node.
//   - DP (data parallel): whole-pipeline replicas, one per node,
//     synchronized over the inter-node fabric (internal/cluster).
//
// Because the TP ranks of one group do symmetric work on symmetric
// shards, the simulator models one representative rank per group —
// the "plane": a derived topology whose devices are the rank-0
// representatives (Representative). When TP == 1 the plane *is* the
// original topology (the same pointer), so the entire
// planner/executor stack runs byte-identically to the pre-grid code.
// Stages resolve to plane devices through Placement.
package grid

import (
	"fmt"

	"mpress/internal/hw"
	"mpress/internal/units"
)

// Shape is the degree of each axis; its product is the world size.
type Shape struct {
	TP int `json:"tp"`
	PP int `json:"pp"`
	DP int `json:"dp"`
}

// World returns the total shard count TP×PP×DP.
func (s Shape) World() int { return s.TP * s.PP * s.DP }

// String renders the factorization, e.g.
// "world 16 = TP(2) × PP(4) × DP(2)".
func (s Shape) String() string {
	return fmt.Sprintf("world %d = TP(%d) × PP(%d) × DP(%d)",
		s.World(), s.TP, s.PP, s.DP)
}

// Grid factors a cluster's device world — `nodes` replicas of one
// server topology — into process groups along the three axes.
type Grid struct {
	Shape Shape
	// Topo is the physical per-node server topology.
	Topo *hw.Topology

	plane *hw.Topology
}

// New validates and builds the grid: TP must divide the server's GPU
// count (PP = NumGPUs/TP falls out), DP is the node count, and every
// TP group must form an NVLink island — consecutive ring members
// directly connected — because per-operator all-reduces are only
// viable over NVLink.
func New(topo *hw.Topology, nodes, tp int) (*Grid, error) {
	if topo == nil {
		return nil, fmt.Errorf("grid: topology is required")
	}
	if nodes < 1 {
		nodes = 1
	}
	if tp < 1 {
		return nil, fmt.Errorf("grid: TP degree must be positive (got %d)", tp)
	}
	if topo.NumGPUs%tp != 0 {
		return nil, fmt.Errorf("grid: TP(%d) does not divide the %d GPUs of %q", tp, topo.NumGPUs, topo.Name)
	}
	g := &Grid{
		Shape: Shape{TP: tp, PP: topo.NumGPUs / tp, DP: nodes},
		Topo:  topo,
	}
	if err := g.validateIslands(); err != nil {
		return nil, err
	}
	g.plane = derivePlane(topo, tp)
	return g, nil
}

// MustNew is New panicking on invalid input, for tests and examples.
func MustNew(topo *hw.Topology, nodes, tp int) *Grid {
	g, err := New(topo, nodes, tp)
	if err != nil {
		panic(err)
	}
	return g
}

// validateIslands checks that every TP group's ring is NVLink
// connected: on a switched fabric any grouping works; on a direct
// (cube-mesh) fabric each consecutive pair of the group's ring order
// must share at least one lane.
func (g *Grid) validateIslands() error {
	if g.Shape.TP == 1 || g.Topo.Switched {
		return nil
	}
	for pp := 0; pp < g.Shape.PP; pp++ {
		members := g.TPGroup(pp)
		for i, m := range members {
			next := members[(i+1)%len(members)]
			if m == next {
				continue
			}
			if g.Topo.LanesBetween(m, next) == 0 {
				return fmt.Errorf("grid: TP group %d (%v) is not an NVLink island on %q: %v and %v share no lanes",
					pp, members, g.Topo.Name, m, next)
			}
		}
	}
	return nil
}

// TPGroup lists the physical devices of pipeline stage pp's TP group,
// in ring order (TP rank 0 first).
func (g *Grid) TPGroup(pp int) []hw.DeviceID {
	out := make([]hw.DeviceID, g.Shape.TP)
	base := pp * g.Shape.TP
	for t := range out {
		out[t] = hw.DeviceID(base + t)
	}
	return out
}

// Representative returns the TP-rank-0 physical device of plane
// device p — the rank the simulator models for the whole group.
func (g *Grid) Representative(p hw.DeviceID) hw.DeviceID {
	return hw.DeviceID(int(p) * g.Shape.TP)
}

// Plane returns the representative-rank topology the simulator runs
// on: one device per TP group. When TP == 1 it is the original
// *hw.Topology pointer — the identity that keeps TPDegree=1 runs
// byte-identical to pre-grid code.
func (g *Grid) Plane() *hw.Topology { return g.plane }

// derivePlane builds the representative topology. Per-pair lanes are
// the representatives' physical lanes; shared host-side resources
// (DRAM, NVMe capacity) are divided across the span since every rank
// of a group consumes its own equal share.
func derivePlane(topo *hw.Topology, span int) *hw.Topology {
	if span == 1 {
		return topo
	}
	p := *topo
	p.Name = fmt.Sprintf("%s[tp=%d]", topo.Name, span)
	p.NumGPUs = topo.NumGPUs / span
	p.HostMemory = topo.HostMemory / units.Bytes(span)
	p.NVMeSize = topo.NVMeSize / units.Bytes(span)
	if !topo.Switched {
		lanes := make([][]int, p.NumGPUs)
		for i := range lanes {
			lanes[i] = make([]int, p.NumGPUs)
			ri := hw.DeviceID(i * span)
			for j := range lanes[i] {
				lanes[i][j] = topo.LanesBetween(ri, hw.DeviceID(j*span))
			}
		}
		p.NVLinkLanes = lanes
	}
	return &p
}

// TPRingBandwidth returns the per-hop bandwidth of the slowest TP
// ring on the server — the rate one all-reduce step runs at. Zero
// when TP == 1 (no collective runs).
func (g *Grid) TPRingBandwidth() units.Bandwidth {
	if g.Shape.TP == 1 {
		return 0
	}
	if g.Topo.Switched {
		return units.Bandwidth(float64(g.Topo.NVLinkLaneBW) * float64(g.Topo.LanesPerGPU))
	}
	minLanes := -1
	for pp := 0; pp < g.Shape.PP; pp++ {
		members := g.TPGroup(pp)
		for i, m := range members {
			next := members[(i+1)%len(members)]
			if m == next {
				continue
			}
			if l := g.Topo.LanesBetween(m, next); minLanes < 0 || l < minLanes {
				minLanes = l
			}
		}
	}
	if minLanes <= 0 {
		return 0
	}
	return units.Bandwidth(float64(g.Topo.NVLinkLaneBW) * float64(minLanes))
}

// GroupString renders one TP group's member list, e.g.
// "tp group 2 (pp=2): n0/gpu4 n0/gpu5".
func (g *Grid) GroupString(pp, node int) string {
	s := fmt.Sprintf("tp group %d (pp=%d):", pp, pp)
	for _, d := range g.TPGroup(pp) {
		s += " " + d.On(node).String()
	}
	return s
}
