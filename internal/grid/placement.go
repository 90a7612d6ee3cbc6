package grid

import "mpress/internal/hw"

// Placement maps pipeline stages to devices. It is the accessor layer
// that replaces direct `Mapping[s] = gpu` slice indexing (kept out of
// every other package by `make vet-grid`): the flat wire-format slice
// stays — plan files and reports serialize it unchanged — but code
// resolves stages through a Placement, which also knows how to expand
// a plane device into the physical shards of its TP group.
type Placement struct {
	g    *Grid
	reps []hw.DeviceID
}

// Flat wraps a plane-space stage→device slice with no grid attached:
// plane devices are physical devices (the TP == 1 world every
// pre-grid component lives in). The slice is aliased, not copied.
func Flat(mapping []hw.DeviceID) Placement {
	return Placement{reps: mapping}
}

// Place wraps a plane-space mapping with the grid that interprets it,
// so per-shard expansion (Shard, Shards) resolves physical devices.
func (g *Grid) Place(mapping []hw.DeviceID) Placement {
	return Placement{g: g, reps: mapping}
}

// Stages returns the number of mapped stages.
func (p Placement) Stages() int { return len(p.reps) }

// GPU returns the plane device hosting stage s — the TP-rank-0
// representative the simulator models. For flat placements this is
// the physical device itself.
func (p Placement) GPU(s int) hw.DeviceID { return p.reps[s] }

// Mapping returns the underlying plane-space slice (aliased), for
// serialization and wire formats.
func (p Placement) Mapping() []hw.DeviceID { return p.reps }

// Shard returns the physical endpoint of stage s's TP rank tp on
// node 0. Without a grid, rank 0 is the device itself.
func (p Placement) Shard(s, tp int) hw.NodeDevice {
	if p.g == nil {
		return p.reps[s].On(0)
	}
	return p.g.Device(Coord{TP: tp, PP: int(p.reps[s]), DP: 0})
}

// Shards lists every physical device of stage s's TP group on node 0,
// TP rank order.
func (p Placement) Shards(s int) []hw.NodeDevice {
	if p.g == nil {
		return []hw.NodeDevice{p.reps[s].On(0)}
	}
	members := p.g.TPGroup(int(p.reps[s]))
	out := make([]hw.NodeDevice, len(members))
	for i, d := range members {
		out[i] = d.On(0)
	}
	return out
}
