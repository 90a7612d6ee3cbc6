package grid

import "mpress/internal/hw"

// Placement maps pipeline stages to plane devices. It is the accessor
// layer that replaces direct `Mapping[s] = gpu` slice indexing (kept
// out of every other package by `make vet-grid`): the flat wire-format
// slice stays — plan files and reports serialize it unchanged — but
// code resolves stages through a Placement.
type Placement struct {
	reps []hw.DeviceID
}

// Flat wraps a plane-space stage→device slice. The slice is aliased,
// not copied.
func Flat(mapping []hw.DeviceID) Placement {
	return Placement{reps: mapping}
}

// GPU returns the plane device hosting stage s — the TP-rank-0
// representative the simulator models. At TP == 1 this is the
// physical device itself.
func (p Placement) GPU(s int) hw.DeviceID { return p.reps[s] }
