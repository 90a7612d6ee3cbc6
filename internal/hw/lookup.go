package hw

import "mpress/internal/names"

// Topologies maps every accepted -topo name (including aliases) to its
// preset constructor.
var Topologies = names.New[func() *Topology]("hw: unknown topology").
	Add("dgx1", DGX1, "dgx-1v", "v100").
	Add("dgx1-nvme", DGX1WithNVMe).
	Add("dgx2", DGX2, "dgx-2a100", "a100").
	Add("dgx2-fastnvme", DGX2FastNVMe).
	Add("grace", GraceHopper, "gracehopper", "gh200")

// LookupTopology resolves a CLI topology name and builds a fresh
// preset, so callers may mutate their copy.
func LookupTopology(name string) (*Topology, error) {
	build, err := Topologies.Lookup(name)
	if err != nil {
		return nil, err
	}
	return build(), nil
}
